package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): campaign progress gauges, cache counters,
// campaign-wide metric means and CI half-widths, and per-condition run counts and
// means.
func WritePrometheus(w io.Writer, snap *Snapshot) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("gs_runs_total", "Planned runs across the campaign's sweeps.", float64(snap.Total))
	gauge("gs_runs_done", "Completed runs so far.", float64(snap.Done))
	gauge("gs_runs_cached", "Completed runs served from the run cache.", float64(snap.Cached))
	gauge("gs_conditions", "Distinct conditions touched so far.", float64(len(snap.Conditions)))
	gauge("gs_elapsed_seconds", "Wall time since the campaign started.", snap.ElapsedS)
	interrupted := 0.0
	if snap.Interrupted {
		interrupted = 1
	}
	gauge("gs_sweep_interrupted", "1 when a sweep was cancelled before finishing.", interrupted)

	if h := snap.Health; h != nil {
		gauge("gs_eta_seconds", "Projected remaining wall time.", h.ETAS)
		gauge("gs_runs_per_sec", "Campaign run completion rate.", h.RunsPerS)
	}
	if c := snap.Cache; c != nil {
		gauge("gs_cache_hits", "Run-cache hits.", float64(c.Hits))
		gauge("gs_cache_misses", "Run-cache misses.", float64(c.Misses))
		gauge("gs_cache_stored", "Run-cache entries stored.", float64(c.Stored))
		gauge("gs_cache_hit_pct", "Run-cache hit rate in percent.", c.HitRate())
	}

	// Campaign-wide metric sketches: mean and CI half-width.
	names := make([]string, 0, len(snap.Campaign))
	for name := range snap.Campaign {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP gs_metric_mean Campaign-wide mean per paper metric.\n# TYPE gs_metric_mean gauge\n")
	for _, name := range names {
		fmt.Fprintf(w, "gs_metric_mean{metric=%q} %g\n", name, snap.Campaign[name].Mean())
	}
	fmt.Fprintf(w, "# HELP gs_metric_ci95 95%% confidence half-width on the campaign mean.\n# TYPE gs_metric_ci95 gauge\n")
	for _, name := range names {
		fmt.Fprintf(w, "gs_metric_ci95{metric=%q} %g\n", name, snap.Campaign[name].CI95())
	}

	fmt.Fprintf(w, "# HELP gs_cond_runs Completed runs per condition.\n# TYPE gs_cond_runs gauge\n")
	for _, c := range snap.Conditions {
		fmt.Fprintf(w, "gs_cond_runs{cond=%q} %d\n", c.Cond, c.Runs)
	}
	fmt.Fprintf(w, "# HELP gs_cond_metric_mean Per-condition mean per paper metric.\n# TYPE gs_cond_metric_mean gauge\n")
	for _, c := range snap.Conditions {
		ns := make([]string, 0, len(c.Metrics))
		for name := range c.Metrics {
			ns = append(ns, name)
		}
		sort.Strings(ns)
		for _, name := range ns {
			fmt.Fprintf(w, "gs_cond_metric_mean{cond=%q,metric=%q} %g\n", c.Cond, name, c.Metrics[name].Mean())
		}
	}
}

// TelemetryServer serves an Aggregator's live state over HTTP:
//
//	/metrics   Prometheus text exposition format
//	/snapshot  full JSON Snapshot
//	/          plain-text index
//
// Close it when the campaign ends; the final state can still be persisted
// with WriteSnapshot.
type TelemetryServer struct {
	ag  *Aggregator
	ln  net.Listener
	srv *http.Server
}

// ServeTelemetry binds addr (e.g. ":9300" or "127.0.0.1:0") and serves the
// aggregator's state until Close. It returns once the listener is bound, so
// a caller that starts it before the sweep can be scraped immediately.
func ServeTelemetry(addr string, ag *Aggregator) (*TelemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listen %s: %w", addr, err)
	}
	ts := &TelemetryServer{ag: ag, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", ts.handleMetrics)
	mux.HandleFunc("/snapshot", ts.handleSnapshot)
	mux.HandleFunc("/", ts.handleIndex)
	ts.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go ts.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ts, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *TelemetryServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *TelemetryServer) Close() error { return s.srv.Close() }

func (s *TelemetryServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.ag.Snapshot())
}

func (s *TelemetryServer) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(s.ag.Snapshot()) //nolint:errcheck // best-effort over HTTP
}

func (s *TelemetryServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	snap := s.ag.Snapshot()
	fmt.Fprintf(&b, "gs telemetry: %d/%d runs", snap.Done, snap.Total)
	if h := snap.Health; h != nil && h.ETAS > 0 {
		fmt.Fprintf(&b, " (eta %.0fs)", h.ETAS)
	}
	b.WriteString("\n\nendpoints:\n  /metrics   Prometheus text format\n  /snapshot  JSON snapshot\n")
	io.WriteString(w, b.String()) //nolint:errcheck
}
