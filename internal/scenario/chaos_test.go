package scenario

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/runcache"
)

func TestGenerateChaosRunDeterministic(t *testing.T) {
	for i := 0; i < 10; i++ {
		a := GenerateChaosRun(42, i, 0.1)
		b := GenerateChaosRun(42, i, 0.1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: generator not deterministic", i)
		}
	}
	if reflect.DeepEqual(GenerateChaosRun(42, 0, 0.1).Cfg, GenerateChaosRun(43, 0, 0.1).Cfg) {
		t.Fatal("different campaign seeds produced identical run 0")
	}
}

func TestChaosEpisodesWellFormed(t *testing.T) {
	for i := 0; i < 50; i++ {
		cr := GenerateChaosRun(7, i, 0.1)
		tl := cr.Cfg.Timeline
		if len(cr.Episodes) < 1 || len(cr.Episodes) > 3 {
			t.Fatalf("run %d: %d episodes", i, len(cr.Episodes))
		}
		prevEnd := tl.FlowStart
		for _, ep := range cr.Episodes {
			if ep.Start < prevEnd || ep.End <= ep.Start || ep.End >= tl.FlowStop {
				t.Fatalf("run %d: episode %+v outside or overlapping (prev end %v, window %v-%v)",
					i, ep, prevEnd, tl.FlowStart, tl.FlowStop)
			}
			prevEnd = ep.End
		}
		// Every episode's knob must be restored: equal numbers of enter and
		// restore steps, and steps sorted.
		if len(cr.Cfg.Schedule) != 2*len(cr.Episodes) {
			t.Fatalf("run %d: %d steps for %d episodes", i, len(cr.Cfg.Schedule), len(cr.Episodes))
		}
		for s := 1; s < len(cr.Cfg.Schedule); s++ {
			if cr.Cfg.Schedule[s].At < cr.Cfg.Schedule[s-1].At {
				t.Fatalf("run %d: schedule not sorted", i)
			}
		}
	}
}

// memLog collects runlog records for order-independent comparison.
type memLog struct {
	mu   sync.Mutex
	recs []obs.Record
}

func (m *memLog) SweepStart(int)                {}
func (m *memLog) SweepDone(bool, time.Duration) {}

func (m *memLog) RunDone(u obs.Update) {
	m.mu.Lock()
	m.recs = append(m.recs, *u.Record)
	m.mu.Unlock()
}

// canonical sorts records by seed and zeroes the wall-clock-only engine
// fields, leaving exactly the deterministic content.
func canonical(recs []obs.Record) []obs.Record {
	out := make([]obs.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Engine.WallSeconds = 0
		out[i].Engine.Speedup = 0
		out[i].Engine.EventsPerSecond = 0
		out[i].Cached = false
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func TestChaosCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full chaos campaign")
	}
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := &memLog{}
	cc := ChaosConfig{
		Seed:        42,
		Runs:        8,
		Scale:       0.05,
		Workers:     4,
		Cache:       cache,
		SampleEvery: 4,
	}
	rep, err := RunChaos(cc, experiment.Sinks{Progress: log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("campaign reported violations:\n%+v", rep.Invariants)
	}
	for _, inv := range rep.Invariants {
		if inv.Checked+inv.Skipped != cc.Runs {
			t.Fatalf("%s: checked %d + skipped %d != %d runs", inv.Name, inv.Checked, inv.Skipped, cc.Runs)
		}
	}
	// The always-on invariants must actually have checked something.
	for _, name := range []string{"recovery-after-departure", "queue-bound"} {
		found := false
		for _, inv := range rep.Invariants {
			if inv.Name == name && inv.Checked > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("invariant %s never checked", name)
		}
	}
	if len(log.recs) != cc.Runs {
		t.Fatalf("runlog got %d records, want %d", len(log.recs), cc.Runs)
	}

	// Same seed, same campaign: every run must now be a cache hit and the
	// report (and canonical runlog) byte-identical.
	log2 := &memLog{}
	cc2 := cc
	cc2.Workers = 1
	rep2, err := RunChaos(cc2, experiment.Sinks{Progress: log2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != cc.Runs {
		t.Fatalf("re-run cache hits = %d, want %d", rep2.CacheHits, cc.Runs)
	}
	r1, r2 := *rep, *rep2
	r1.CacheHits, r2.CacheHits = 0, 0
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("re-run report differs:\n%+v\n%+v", rep, rep2)
	}
	if !reflect.DeepEqual(canonical(log.recs), canonical(log2.recs)) {
		t.Fatal("re-run runlog differs from original")
	}
}

// TestChaosWorkersInvariant proves worker count cannot change a campaign:
// the golden-file round-trip across parallelism levels.
func TestChaosWorkersInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three chaos campaigns")
	}
	var reports []*CampaignReport
	var logs [][]obs.Record
	for _, workers := range []int{1, 4, 8} {
		log := &memLog{}
		rep, err := RunChaos(ChaosConfig{
			Seed: 9, Runs: 4, Scale: 0.05, Workers: workers, SampleEvery: -1,
		}, experiment.Sinks{Progress: log})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		logs = append(logs, canonical(log.recs))
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("reports differ between workers=1 and variant %d:\n%+v\n%+v", i, reports[0], reports[i])
		}
		if !reflect.DeepEqual(logs[0], logs[i]) {
			t.Fatalf("runlogs differ between workers=1 and variant %d", i)
		}
	}
}
