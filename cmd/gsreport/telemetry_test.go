package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/units"
)

// TestRunLogFoldMatchesLiveTelemetry is the one-path proof: a small sweep
// feeds an Aggregator and a JSONL through one MultiProgress, and folding
// that JSONL offline gives the live snapshot's deterministic bytes and,
// from the campaign table onward, the same report. One condition is
// impaired with a link flap and one carries a flow population, so the
// impairment and population sketches are covered too.
func TestRunLogFoldMatchesLiveTelemetry(t *testing.T) {
	tl := metrics.PaperTimeline.Scale(0.05)
	sched, err := experiment.ParseSchedule("12s down; 13s up")
	if err != nil {
		t.Fatal(err)
	}
	plain := experiment.Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
	impaired := plain
	impaired.Impair = netem.Impairment{LossModel: netem.LossBernoulli, LossRate: 0.01}
	populated := plain
	populated.System = gamestream.Luna
	var jobs []experiment.Job
	for it := 0; it < 2; it++ {
		jobs = append(jobs,
			experiment.Job{Iter: it, Cfg: experiment.RunConfig{Condition: plain, Timeline: tl, Seed: experiment.RunSeed(7, it, plain)}},
			experiment.Job{Iter: it, Cfg: experiment.RunConfig{Condition: impaired, Timeline: tl, Schedule: sched, Seed: experiment.RunSeed(7, it, impaired)}},
			experiment.Job{Iter: it, Cfg: experiment.RunConfig{Condition: populated, Timeline: tl, Seed: experiment.RunSeed(7, it, populated),
				Population: experiment.FlowPopulation{Flows: 4}}},
		)
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	live := obs.NewAggregator()
	experiment.Execute(context.Background(), jobs, 2, nil,
		experiment.Sinks{Progress: obs.MultiProgress(live, obs.NewJSONL(f))}, nil)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	folded, err := foldRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	liveSnap := live.Snapshot()
	want, err := liveSnap.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := folded.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("folded run log differs from the live snapshot:\n got %s\nwant %s", got, want)
	}

	sketched := func(cond, metric string) bool {
		for _, c := range folded.Conditions {
			if c.Cond == cond {
				return c.Metrics[metric] != nil && c.Metrics[metric].N() == 2
			}
		}
		return false
	}
	for _, m := range []string{"loss_drops", "flap_drops", "flaps", "down_s"} {
		if !sketched(impaired.String(), m) {
			t.Errorf("impaired condition has no 2-run %s sketch", m)
		}
		if sketched(plain.String(), m) {
			t.Errorf("clean condition sketches %s", m)
		}
	}
	if !sketched(populated.String(), "starved") {
		t.Error("populated condition has no 2-run starved sketch")
	}
	if sketched(plain.String(), "starved") {
		t.Error("classic 1-vs-1 condition sketches starved")
	}

	report := func(snap *obs.Snapshot) string {
		var b strings.Builder
		figures.RenderTelemetry(&b, "x", snap)
		out := b.String()
		return out[strings.Index(out, "campaign metrics"):]
	}
	liveReport, foldReport := report(liveSnap), report(folded)
	if foldReport != liveReport {
		t.Fatalf("reports differ from the campaign table onward:\n%s\nvs\n%s", foldReport, liveReport)
	}
	for _, title := range []string{"per-condition impairments", "per-condition flow populations", "fairness ± ci"} {
		if !strings.Contains(foldReport, title) {
			t.Errorf("report lacks %q:\n%s", title, foldReport)
		}
	}
}
