// Package stats provides the statistical accumulators and summaries the
// paper's analysis uses: streaming (Welford) mean/variance, Student-t 95%
// confidence intervals across run samples, and percentiles — plus the
// mergeable sketches campaign-scale telemetry is built on.
//
// Everything here is allocation-light by design: Accumulator is a fixed
// struct fed one sample at a time, and Percentile sorts a caller-owned
// slice in place (Percentiles amortises one sort across several quantiles).
// The multi-flow fairness summaries (per-flow throughput and RTT-inflation
// quantiles in experiment.FlowSummary) are built from these primitives.
//
// # Sketches
//
// MetricSketch extends an Accumulator with the exact minimum and maximum:
// five numbers per metric, however many samples fold in. It is
// deterministic — state is a pure function of the insertion sequence,
// merges are pure functions of their operands, and queries never mutate —
// so a campaign that folds runs in a canonical order serialises
// byte-identically however its workers were scheduled. The obs.Aggregator
// keeps one MetricSketch per (condition, metric), which is what lets a
// campaign report every paper table cell as a mean with its 95% CI without
// retaining per-run records.
package stats
