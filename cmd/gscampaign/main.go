// Command gscampaign coordinates sharded measurement campaigns. It expands
// a campaign spec (a grid over the paper's axes, or Monte-Carlo draws from
// empirical rate/RTT/queue distributions) into a deterministic cell list,
// partitions it into shards, executes the shards through the shared
// content-addressed run cache, and merges the per-shard telemetry
// snapshots in shard order. Each shard's cells run on every core, so one
// process uses the whole machine.
//
// Every invocation does the same thing: initialise (or, with -resume,
// adopt) the campaign directory, claim and execute missing shards until
// none remain, and merge. Extra processes on the same directory — on this
// host for crash isolation, or on other hosts sharing the directory and
// cache — are further `gscampaign -dir D -resume` invocations: the claim
// files in the directory split the shards between them, and a killed
// process's lease expires and is stolen. The merged deterministic JSON is
// byte-identical however many processes ran and however many of them
// crashed; a SIGKILL'd process loses at most the uncached runs of its
// in-flight shard.
//
// Usage:
//
//	gscampaign -spec paper.campaign -dir camp
//	gscampaign -dir camp -resume        # another process, or after a crash
//	gsreport camp
//
// gsreport camp is the one status view: per-shard completion and claims,
// then the merged tables once every shard has published.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/figures"
	"repro/internal/runcache"
)

func main() {
	var (
		specPath = flag.String("spec", "", "campaign spec file; omit with -resume to adopt the directory's campaign")
		dir      = flag.String("dir", "", "campaign directory: manifest, shard claims/outputs, merged artefacts (required)")
		cacheDir = flag.String("cache", "", "shared run cache directory (default <dir>/cache); every process on the directory must use the same one")
		lease    = flag.Duration("lease", campaign.DefaultLease, "shard claim lease; a crashed process's shard is re-claimed after this expires")
		poll     = flag.Duration("poll", campaign.DefaultPoll, "idle wait between shard scans when all unfinished shards are claimed")
		resume   = flag.Bool("resume", false, "adopt an initialised campaign directory, executing only missing shards (also how extra processes or hosts join a campaign)")
		quiet    = flag.Bool("quiet", false, "suppress per-shard progress lines")
	)
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "gscampaign: -dir is required")
		os.Exit(2)
	}
	if err := checkDurations(*lease, *poll); err != nil {
		fmt.Fprintln(os.Stderr, "gscampaign:", err)
		os.Exit(1)
	}
	if err := run(*specPath, *dir, *cacheDir, *lease, *poll, *resume, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "gscampaign:", err)
		os.Exit(1)
	}
}

// checkDurations rejects a -lease or -poll that is not positive, naming
// the flag: the Worker replaces such a value with its default, which would
// run -lease -5s with a one-minute lease and say nothing.
func checkDurations(lease, poll time.Duration) error {
	if lease <= 0 {
		return fmt.Errorf("-lease %v must be positive", lease)
	}
	if poll <= 0 {
		return fmt.Errorf("-poll %v must be positive", poll)
	}
	return nil
}

func run(specPath, dir, cacheDir string, lease, poll time.Duration, resume, quiet bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cacheDir == "" {
		cacheDir = filepath.Join(dir, "cache")
	}
	cache, err := runcache.Open(cacheDir)
	if err != nil {
		return err
	}

	var sp *campaign.Spec
	if specPath != "" {
		if sp, err = campaign.ParseSpecFile(specPath); err != nil {
			return err
		}
	}

	log := os.Stderr
	o := campaign.Options{
		Dir: dir, Cache: cache,
		Resume: resume, Lease: lease, Poll: poll,
	}
	if !quiet {
		o.Log = log
	}
	res, err := campaign.Run(ctx, sp, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "campaign %s (%s) merged: %s\n", res.Manifest.Name, res.Manifest.ID, res.SnapPath)
	fmt.Fprintf(log, "shards executed by this process: %d of %d\n", res.ShardsRun, res.Manifest.Shards)
	fmt.Fprintf(log, "deterministic telemetry: %s\nmerged runlog: %s\n", res.DetPath, res.RunlogPath)
	figures.RenderTelemetry(os.Stdout, dir, res.Snapshot)
	return nil
}
