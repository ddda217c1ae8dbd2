// Package obs is the observability layer of the simulated testbed: live
// progress reporting for experiment sweeps and structured, grep-able run
// logs — the simulator's stand-in for the paper's always-on Wireshark,
// ping, and PresentMon instrumentation.
//
// The package sits deliberately below internal/experiment in the import
// graph: it defines the sink interface and record shapes, and experiment
// (the producer) depends on it, never the other way round. Nothing in obs
// touches the simulation clock; every timestamp here is wall-clock time,
// which keeps the discrete-event engine a pure function of its inputs.
//
// # Progress
//
// Progress is the sink a sweep reports to while it executes. The
// experiment runner calls SweepStart once with the total run count, RunDone
// after every completed run (with completed/total counters, wall-clock
// elapsed, and a projected ETA), and SweepDone exactly once when the sweep
// returns — whether it completed or was cancelled. Implementations must be
// safe for concurrent use: RunDone is invoked from worker goroutines.
//
// Printer is the standard implementation: it renders throttled,
// single-line progress to a writer (typically stderr) and accumulates
// per-condition wall time so a sweep's cost breakdown is visible at the
// end:
//
//	sweep: 123/810 (15.2%) luna/bbr/B25/q7.0x elapsed 41s eta 3m52s
//
// # Run logs
//
// Record is the structured form of one run: the condition coordinates,
// the seed, the engine's execution counters, and the headline metrics the
// paper reports (bitrates, fairness, RTT, frame rate, loss). Every
// RunDone carries its run's Record, so a run log is just another Progress
// sink: JSONL appends one JSON object per line, so campaigns can be tailed
// live, grepped, and diffed across revisions:
//
//	gsbench -exp figure3 -progress -runlog runs.jsonl &
//	tail -f runs.jsonl | grep '"cond":"stadia/bbr/B25/q0.5x"'
//
// ReadJSONL is the inverse: gsreport replays a finished (or interrupted)
// campaign's records through a fresh Aggregator, which folds them into
// the same sketches the live sweep's Aggregator kept.
package obs
