// Package experiment reproduces the paper's methodology: it wires the
// Figure-1 testbed (game server and iperf server behind a shaped bottleneck
// router, game client and iperf client on the LAN side), runs the 9-minute
// automated procedure with the competing TCP flow active in the middle
// third, and sweeps the full parameter grid — system × congestion control ×
// capacity × queue size × iteration — collecting the traces behind every
// table and figure.
//
// # Single runs
//
// Run executes one condition end to end and is a pure function of its
// RunConfig, including the Seed: the engine never consults the wall clock
// for simulation decisions, so identical configs produce bit-identical
// RunResults.
//
// # Execution and sweeps
//
// Execute is the in-process executor: it runs a list of Jobs across a
// bounded worker pool, through the run cache when one is given, reports
// every run to optional obs.Progress and obs.RunLog sinks, and hands each
// result to a caller hook on the worker goroutine. Workers defaults to
// DefaultWorkers (runtime.NumCPU) — the single place the repository's
// parallelism default lives.
//
// RunSweep expands the paper grid into jobs, executes them, and groups the
// results by condition. Every run's seed derives from its grid position
// (runSeed), so the result set is deterministic regardless of worker count
// or scheduling order.
//
// Sweeps are cancellable and observable: RunSweep takes a context.Context,
// and SweepConfig carries optional obs.Progress and obs.RunLog sinks.
// Cancelling the context stops new runs from starting; in-flight runs
// complete (a full-fidelity run is seconds of wall time), workers drain
// cleanly, and the partial SweepResult comes back with Interrupted set so
// downstream consumers can label the data.
//
// # Persistence
//
// SaveSweep/LoadSweep round-trip a SweepResult through gzipped gob so
// additional tables can be rendered without re-running hundreds of
// simulations; RunResult.Record renders a run as an obs.Record for
// JSONL run logs.
package experiment
