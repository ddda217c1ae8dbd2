package main

import (
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/runcache"
)

// telemetry bundles the optional campaign telemetry sinks: the streaming
// Aggregator, its live HTTP endpoint, the health-timeline file, and the
// final snapshot destination.
type telemetry struct {
	ag      *obs.Aggregator
	srv     *obs.TelemetryServer
	out     string
	logFile *os.File
}

// openTelemetry builds the telemetry stack from the -telemetry-* flags; all
// empty means a nil Aggregator and a no-op close.
func openTelemetry(addr, out, logPath string, cache *runcache.Cache) (*telemetry, error) {
	t := &telemetry{out: out}
	if addr == "" && out == "" && logPath == "" {
		return t, nil
	}
	t.ag = obs.NewAggregator()
	if cache != nil {
		t.ag.CacheStats = func() runcache.Stats { return cache.Stats() }
	}
	if logPath != "" {
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		t.logFile = f
		t.ag.Timeline = f
	}
	if addr != "" {
		srv, err := obs.ServeTelemetry(addr, t.ag)
		if err != nil {
			return nil, err
		}
		t.srv = srv
		fmt.Fprintf(os.Stderr, "gssim: telemetry at http://%s/ (/metrics, /snapshot)\n", srv.Addr())
	}
	return t, nil
}

// progress returns the Aggregator as a Progress sink (nil when telemetry is
// off — a plain nil *Aggregator must not become a non-nil interface).
func (t *telemetry) progress() obs.Progress {
	if t.ag == nil {
		return nil
	}
	return t.ag
}

// close persists the final snapshot (when -telemetry-out was given) and
// shuts the HTTP server and timeline file down.
func (t *telemetry) close() {
	if t.ag != nil && t.out != "" {
		if err := obs.WriteSnapshot(t.out, t.ag.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "gssim:", err)
		} else {
			fmt.Fprintf(os.Stderr, "gssim: telemetry snapshot written to %s\n", t.out)
		}
	}
	if t.srv != nil {
		t.srv.Close()
	}
	if t.logFile != nil {
		t.logFile.Close()
	}
}
