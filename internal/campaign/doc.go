// Package campaign is the experiment coordinator: it expands a declarative
// campaign spec — a full factorial grid or Monte-Carlo draws from
// empirical rate/RTT/queue distributions — into a deterministic cell list,
// partitions the cells into shards, and executes the shards through one
// content-addressed run cache. Every interface is a file: the campaign
// directory, the run cache, the shard snapshots and runlogs.
//
// The division of labour:
//
//   - spec.go parses the INI-style campaign file into a Spec and renders
//     the Spec back to its canonical text, whose SHA-256 is the campaign ID.
//   - cells.go expands the Spec into cells. Expansion is a pure function of
//     the canonical text: every process that reads the manifest derives the
//     identical cell list, seeds included, with nothing else to ship.
//   - manifest.go pins the campaign directory layout: manifest.json plus
//     per-shard claim, runlog, and snapshot files. A shard's snapshot file
//     doubles as its done marker (written atomically, so it either exists
//     completely or not at all).
//   - worker.go is the claim-execute-publish loop: acquire a shard's lease
//     file, execute its cells through experiment.Execute on every core,
//     publish the shard runlog (in job order) and telemetry snapshot,
//     release, repeat until no shards remain.
//   - coordinator.go initialises (or resumes) the campaign directory, runs
//     one Worker in-process, and merges the per-shard snapshots in shard
//     order into the final campaign telemetry.
//
// One process uses every core. Extra processes — on one host for crash
// isolation, or on several hosts sharing the directory and the cache — are
// further coordinators over the same directory (`gscampaign -dir D
// -resume`); the claim files split the shards between them.
//
// Correctness never depends on the claim files — they are leases that keep
// processes off each other's shards in the common case (see runcache's
// claim layer), and a claim file that does not parse is treated as expired.
// A SIGKILL'd process stops renewing; its lease expires; any other process
// steals the shard and re-executes it, replaying every run the dead one
// already cached. Because each shard's snapshot and runlog are pure
// functions of (spec, shard index) and every coordinator merges them in
// shard order, the merged deterministic telemetry is byte-identical however
// many processes ran, died, or raced.
package campaign
