package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// These tests exercise the campaign machinery the way production does: real
// gscampaign processes sharing a directory and a cache (each extra process
// is one more `gscampaign -dir D -resume`), killed with SIGKILL mid-shard,
// racing each other on purpose, and recovering from deliberately
// corrupted cache entries — with the merged outputs required to stay
// byte-identical through all of it.

// procSpecText is sized so four processes are busy for long enough that a
// kill at ~100 ms lands mid-shard: 24 runs in 6 shards of 4.
const procSpecText = `
[campaign]
name = proc-crash
seed = 7
iterations = 2
scale = 0.06
shards = 6

[grid]
systems = stadia, geforce, luna
ccas = cubic, solo
capacities = 25mbit
queue_mults = 0.5, 2
`

// raceSpecText is the smaller grid the contention tests race over: 12 runs
// in 4 shards.
const raceSpecText = `
[campaign]
name = proc-race
seed = 7
iterations = 1
scale = 0.06
shards = 4

[grid]
systems = stadia, geforce, luna
ccas = cubic, solo
capacities = 25mbit
queue_mults = 0.5, 2
`

var (
	binOnce sync.Once
	binDir  string
	binPath string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// gscampaignBin builds the gscampaign binary once per test process.
func gscampaignBin(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "gscampaign-bin-")
		if binErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "gscampaign")
		cmd := exec.Command("go", "build", "-o", binPath, "./cmd/gscampaign")
		cmd.Dir = "../.." // module root, so package paths resolve
		if out, err := cmd.CombinedOutput(); err != nil {
			binErr = fmt.Errorf("build gscampaign: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// runBin executes the gscampaign binary and fails the test on a non-zero
// exit, returning the combined output either way.
func runBin(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("gscampaign %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// startWorker launches one `gscampaign -dir D -resume` process over
// dir/cacheDir, with a short lease and poll so a killed peer's shard is
// stolen within a second. Its combined output collects in the buffer.
func startWorker(t *testing.T, ctx context.Context, bin, dir, cacheDir string, ignoreClaims bool) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	args := []string{"-dir", dir, "-cache", cacheDir, "-resume",
		"-lease", "1s", "-poll", "50ms", "-quiet"}
	if ignoreClaims {
		args = append(args, "-ignore-claims")
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start gscampaign -resume: %v", err)
	}
	return cmd, &out
}

func writeSpecFile(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.campaign")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestProcessCrashResumeByteIdentical is the headline crash story: four
// `gscampaign -resume` processes share a campaign, one dies to SIGKILL
// mid-shard, the survivors steal its expired lease, finish and merge — and
// the merged deterministic telemetry and runlog are byte-identical to an
// uninterrupted single-process run of the same spec.
func TestProcessCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process tests skipped in -short mode")
	}
	bin := gscampaignBin(t)
	spec := writeSpecFile(t, procSpecText)

	// Reference: the whole campaign in one uninterrupted process.
	refDir := filepath.Join(t.TempDir(), "ref")
	runBin(t, bin, "-spec", spec, "-dir", refDir, "-quiet")
	refDet := readFileT(t, MergedDetPath(refDir))
	refLog := readFileT(t, MergedRunlogPath(refDir))

	// Initialise the directory, start four processes on it, and SIGKILL one
	// while its first shard is still executing.
	dir := filepath.Join(t.TempDir(), "crash")
	cacheDir := filepath.Join(dir, "cache")
	if _, _, err := Init(dir, parseSpec(t, procSpecText), false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var cmds []*exec.Cmd
	var outs []*bytes.Buffer
	for i := 0; i < 4; i++ {
		cmd, out := startWorker(t, ctx, bin, dir, cacheDir, false)
		cmds, outs = append(cmds, cmd), append(outs, out)
	}
	time.Sleep(100 * time.Millisecond)
	if err := cmds[0].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL process 0: %v", err)
	}
	if err := cmds[0].Wait(); err == nil {
		t.Fatal("process 0 exited cleanly before the kill; campaign too fast to test crashes")
	}
	for i := 1; i < 4; i++ {
		if err := cmds[i].Wait(); err != nil {
			t.Fatalf("process %d: %v\n%s", i, err, outs[i])
		}
	}

	// The survivors finished every shard, including whatever the dead
	// process had claimed (its lease expired and was stolen), and merged.
	if got := readFileT(t, MergedDetPath(dir)); !bytes.Equal(got, refDet) {
		t.Error("crashed campaign deterministic telemetry differs from uninterrupted run")
	}
	if got := readFileT(t, MergedRunlogPath(dir)); !bytes.Equal(got, refLog) {
		t.Error("crashed campaign merged runlog differs from uninterrupted run")
	}
}

// TestProcessCoordinatorsShareCampaign: a second coordinator started with
// -resume once the first has written the manifest splits the shards with
// it through the claim files — each executes at least one — and both merge
// artefacts byte-identical to a single-process run's.
func TestProcessCoordinatorsShareCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("process tests skipped in -short mode")
	}
	bin := gscampaignBin(t)
	// Six iterations make each shard long enough that the second process
	// starts well before the first could finish alone.
	text := strings.Replace(procSpecText, "iterations = 2", "iterations = 6", 1)
	spec := writeSpecFile(t, text)

	refDir := filepath.Join(t.TempDir(), "ref")
	runBin(t, bin, "-spec", spec, "-dir", refDir, "-quiet")
	refDet := readFileT(t, MergedDetPath(refDir))
	refLog := readFileT(t, MergedRunlogPath(refDir))

	dir := filepath.Join(t.TempDir(), "coop")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var outA bytes.Buffer
	cmdA := exec.CommandContext(ctx, bin, "-spec", spec, "-dir", dir,
		"-lease", "1s", "-poll", "50ms", "-quiet")
	cmdA.Stdout, cmdA.Stderr = &outA, &outA
	if err := cmdA.Start(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(ManifestPath(dir)); err == nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("first coordinator never wrote its manifest")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmdB, outB := startWorker(t, ctx, bin, dir, filepath.Join(dir, "cache"), false)
	if err := cmdA.Wait(); err != nil {
		t.Fatalf("first coordinator: %v\n%s", err, &outA)
	}
	if err := cmdB.Wait(); err != nil {
		t.Fatalf("second coordinator: %v\n%s", err, outB)
	}
	for name, out := range map[string]string{"first": outA.String(), "second": outB.String()} {
		var ran, of int
		i := strings.Index(out, "shards executed by this process:")
		if i < 0 {
			t.Fatalf("%s coordinator printed no shard count:\n%s", name, out)
		}
		if _, err := fmt.Sscanf(out[i:], "shards executed by this process: %d of %d", &ran, &of); err != nil {
			t.Fatal(err)
		}
		if ran < 1 {
			t.Errorf("%s coordinator executed %d of %d shards; want at least one", name, ran, of)
		}
	}
	if got := readFileT(t, MergedDetPath(dir)); !bytes.Equal(got, refDet) {
		t.Error("two-coordinator deterministic telemetry differs from a single-process run")
	}
	if got := readFileT(t, MergedRunlogPath(dir)); !bytes.Equal(got, refLog) {
		t.Error("two-coordinator merged runlog differs from a single-process run")
	}
}

// TestProcessCacheContention races two -ignore-claims coordinators over
// every shard of one campaign: both execute everything, their atomic Puts and
// publishes may interleave arbitrarily, and the result must still be a
// complete, mergeable campaign whose cache holds exactly one intact entry
// per run. A renamed replay through the same cache then proves every entry
// is readable (100% hit rate), and a deliberately truncated blob proves the
// integrity check fires and the run is recomputed across processes.
func TestProcessCacheContention(t *testing.T) {
	if testing.Short() {
		t.Skip("process tests skipped in -short mode")
	}
	bin := gscampaignBin(t)
	base := t.TempDir()
	cacheDir := filepath.Join(base, "cache")

	// Race two coordinators that ignore claims over the campaign.
	dir1 := filepath.Join(base, "race")
	sp := parseSpec(t, raceSpecText)
	if _, _, err := Init(dir1, sp, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmdA, outA := startWorker(t, ctx, bin, dir1, cacheDir, true)
	cmdB, outB := startWorker(t, ctx, bin, dir1, cacheDir, true)
	if err := cmdA.Wait(); err != nil {
		t.Fatalf("coordinator a: %v\n%s", err, outA)
	}
	if err := cmdB.Wait(); err != nil {
		t.Fatalf("coordinator b: %v\n%s", err, outB)
	}
	runBin(t, bin, "-dir", dir1, "-cache", cacheDir, "-resume", "-quiet")
	det1 := readFileT(t, MergedDetPath(dir1))

	// Exactly one blob per distinct run, despite the duplicated Puts.
	blobs, err := filepath.Glob(filepath.Join(cacheDir, "*", "*.blob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != sp.Total() {
		t.Fatalf("cache holds %d blobs, want %d", len(blobs), sp.Total())
	}

	// A renamed campaign over the same cache replays every run: the name is
	// not part of the cache key, so 100% of lookups must hit — which also
	// proves no racing Put left a torn blob behind.
	replaySpec := writeSpecFile(t, strings.Replace(raceSpecText, "name = proc-race", "name = proc-replay", 1))
	dir2 := filepath.Join(base, "replay")
	out := runBin(t, bin, "-spec", replaySpec, "-dir", dir2, "-cache", cacheDir, "-quiet")
	if !strings.Contains(out, "hit rate 100.0%") {
		t.Fatalf("replay through the contended cache was not fully hit:\n%s", out)
	}
	if det2 := readFileT(t, MergedDetPath(dir2)); !bytes.Equal(det2, det1) {
		t.Error("replayed campaign deterministic telemetry differs from the raced one")
	}

	// Truncate one blob. The next process must detect the damage, recompute
	// that run, repair the entry, and still produce identical telemetry.
	if err := truncateBlob(blobs[0]); err != nil {
		t.Fatal(err)
	}
	repairSpec := writeSpecFile(t, strings.Replace(raceSpecText, "name = proc-race", "name = proc-repair", 1))
	dir3 := filepath.Join(base, "repair")
	out = runBin(t, bin, "-spec", repairSpec, "-dir", dir3, "-cache", cacheDir, "-quiet")
	if strings.Contains(out, "hit rate 100.0%") {
		t.Fatalf("truncated blob went undetected (full hit rate):\n%s", out)
	}
	if det3 := readFileT(t, MergedDetPath(dir3)); !bytes.Equal(det3, det1) {
		t.Error("campaign through a truncated cache entry differs from the raced one")
	}
	// The recompute overwrote the entry: one more replay is fully hit again.
	finalSpec := writeSpecFile(t, strings.Replace(raceSpecText, "name = proc-race", "name = proc-final", 1))
	dir4 := filepath.Join(base, "final")
	out = runBin(t, bin, "-spec", finalSpec, "-dir", dir4, "-cache", cacheDir, "-quiet")
	if !strings.Contains(out, "hit rate 100.0%") {
		t.Fatalf("truncated entry was not repaired by the recompute:\n%s", out)
	}
}

// truncateBlob cuts a cache blob to half its length, simulating a partial
// write that somehow landed (a filesystem that lost the tail after rename).
func truncateBlob(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, fi.Size()/2)
}
