package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runcache"
	"repro/internal/stats"
)

// aggRecord builds a deterministic record for condition c, iteration i, with
// metrics that vary by (c, i) so sketches have real distributions.
func aggRecord(c string, i int) *Record {
	h := float64((len(c)*131 + i*17) % 97)
	r := sampleRecord(i)
	r.Cond = c
	r.GameMbps = 10 + h/10
	r.TCPMbps = 3 + h/20
	r.RTTMs = 20 + h/5
	r.FPS = 60 - h/30
	r.LossPct = h / 100
	r.Fairness = 0.4 + h/300
	r.Engine.WallSeconds = 1
	r.Engine.Events = 1_000_000
	r.Engine.EventsPerSecond = 1_000_000
	return &r
}

// feed replays a full grid of conds×iters through ag in the given
// completion order (a permutation of indices into the job list).
func feed(ag *Aggregator, conds []string, iters int, order []int) {
	type job struct {
		cond string
		iter int
	}
	jobs := make([]job, 0, len(conds)*iters)
	for _, c := range conds {
		for i := 0; i < iters; i++ {
			jobs = append(jobs, job{c, i})
		}
	}
	ag.SweepStart(len(jobs))
	for n, idx := range order {
		j := jobs[idx]
		ag.RunDone(Update{
			Done: n + 1, Total: len(jobs),
			Cond: j.cond, Iteration: j.iter,
			RunWall: time.Millisecond,
			Record:  aggRecord(j.cond, j.iter),
		})
	}
	ag.SweepDone(false, time.Second)
}

// TestAggregatorDeterministicAcrossOrders is the acceptance property at the
// obs layer: however the scheduler interleaves run completions, the
// deterministic snapshot section serialises byte-identically.
func TestAggregatorDeterministicAcrossOrders(t *testing.T) {
	conds := []string{"stadia/cubic/B25/q2.0x", "luna/bbr/B25/q2.0x", "gfn/cubic/B75/q0.5x"}
	const iters = 40
	n := len(conds) * iters

	inOrder := make([]int, n)
	for i := range inOrder {
		inOrder[i] = i
	}
	var ref []byte
	for trial := 0; trial < 4; trial++ {
		order := append([]int(nil), inOrder...)
		if trial > 0 {
			// Shuffles simulate different worker counts / scheduling.
			rand.New(rand.NewSource(int64(trial))).Shuffle(n, func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
		}
		ag := NewAggregator()
		feed(ag, conds, iters, order)
		got, err := ag.Snapshot().DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("trial %d: deterministic snapshot differs from in-order reference", trial)
		}
	}

	// Sanity: the snapshot actually carries data.
	var det struct {
		Conditions []struct {
			Cond    string                         `json:"cond"`
			Runs    int                            `json:"runs"`
			Metrics map[string]*stats.MetricSketch `json:"metrics"`
		}
		Campaign map[string]*stats.MetricSketch
	}
	if err := json.Unmarshal(ref, &det); err != nil {
		t.Fatal(err)
	}
	if len(det.Conditions) != len(conds) {
		t.Fatalf("snapshot has %d conditions, want %d", len(det.Conditions), len(conds))
	}
	if got := det.Campaign["game_mbps"].N(); got != int64(n) {
		t.Errorf("campaign game_mbps N = %d, want %d", got, n)
	}
}

// TestAggregatorMatchesDirectFold: sketches through the reorder machinery
// equal a direct in-order fold of the same records, and the campaign merge
// equals folding everything per sorted condition.
func TestAggregatorMatchesDirectFold(t *testing.T) {
	conds := []string{"a/cubic/B25/q2.0x", "b/bbr/B25/q2.0x"}
	const iters = 25
	order := rand.New(rand.NewSource(9)).Perm(len(conds) * iters)
	ag := NewAggregator()
	feed(ag, conds, iters, order)
	snap := ag.Snapshot()

	for ci, c := range conds {
		want := stats.NewMetricSketch(0)
		for i := 0; i < iters; i++ {
			want.Add(aggRecord(c, i).GameMbps)
		}
		got := snap.Conditions[ci].Metrics["game_mbps"]
		if got.N() != want.N() || got.Mean() != want.Mean() || got.Quantile(0.5) != want.Quantile(0.5) {
			t.Errorf("cond %s: aggregated sketch differs from direct fold", c)
		}
	}
	if got, want := snap.Campaign["rtt_ms"].N(), int64(len(conds)*iters); got != want {
		t.Errorf("campaign rtt_ms N = %d, want %d", got, want)
	}
}

// TestAggregatorMidSweepSnapshot: a snapshot taken while records are parked
// in the reorder buffer still includes them, and taking it does not disturb
// the final deterministic state.
func TestAggregatorMidSweepSnapshot(t *testing.T) {
	ag := NewAggregator()
	ag.SweepStart(4)
	c := "x/cubic/B25/q2.0x"
	// Iterations 1 and 3 arrive first and park (0 is missing).
	ag.RunDone(Update{Done: 1, Total: 4, Cond: c, Iteration: 1, Record: aggRecord(c, 1)})
	ag.RunDone(Update{Done: 2, Total: 4, Cond: c, Iteration: 3, Record: aggRecord(c, 3)})
	mid := ag.Snapshot()
	if got := mid.Conditions[0].Metrics["game_mbps"].N(); got != 2 {
		t.Errorf("mid-sweep snapshot N = %d, want 2 (parked records must be visible)", got)
	}
	ag.RunDone(Update{Done: 3, Total: 4, Cond: c, Iteration: 0, Record: aggRecord(c, 0)})
	ag.RunDone(Update{Done: 4, Total: 4, Cond: c, Iteration: 2, Record: aggRecord(c, 2)})
	ag.SweepDone(false, time.Second)

	want := NewAggregator()
	feed(want, []string{c}, 4, []int{0, 1, 2, 3})
	got, _ := ag.Snapshot().DeterministicJSON()
	ref, _ := want.Snapshot().DeterministicJSON()
	if !bytes.Equal(got, ref) {
		t.Error("mid-sweep snapshot perturbed the final deterministic state")
	}
}

// TestAggregatorMultiSweep: chained sweeps (as figures campaigns run) extend
// the totals and restart per-condition iteration numbering cleanly.
func TestAggregatorMultiSweep(t *testing.T) {
	ag := NewAggregator()
	feed(ag, []string{"s1/cubic/B25/q2.0x"}, 3, []int{2, 0, 1})
	feed(ag, []string{"s1/cubic/B25/q2.0x", "s2/bbr/B25/q2.0x"}, 2, []int{1, 3, 0, 2})
	if ag.Total() != 7 || ag.Done() != 7 {
		t.Fatalf("totals = %d/%d, want 7/7", ag.Done(), ag.Total())
	}
	snap := ag.Snapshot()
	if len(snap.Conditions) != 2 {
		t.Fatalf("conditions = %d, want 2", len(snap.Conditions))
	}
	if got := snap.Conditions[0].Runs; got != 5 {
		t.Errorf("s1 runs = %d, want 5 (3 from sweep 1 + 2 from sweep 2)", got)
	}
	if got := snap.Campaign["fps"].N(); got != 7 {
		t.Errorf("campaign fps N = %d, want 7", got)
	}
}

// TestAggregatorFlowsMetrics: population metrics appear only when records
// carry FlowsMeta, with NaN-free counts matching the flow-run subset.
func TestAggregatorFlowsMetrics(t *testing.T) {
	ag := NewAggregator()
	ag.SweepStart(2)
	c := "f/cubic/B25/q2.0x"
	r0 := aggRecord(c, 0)
	r0.Flows = &FlowsMeta{Jain: 0.91, TputP50: 2.5, RTTInflP50: 1.4}
	ag.RunDone(Update{Done: 1, Total: 2, Cond: c, Iteration: 0, Record: r0})
	ag.RunDone(Update{Done: 2, Total: 2, Cond: c, Iteration: 1, Record: aggRecord(c, 1)})
	ag.SweepDone(false, time.Second)
	m := ag.Snapshot().Conditions[0].Metrics
	if m["jain"].N() != 1 || m["jain"].Mean() != 0.91 {
		t.Errorf("jain sketch = %+v, want N=1 mean=0.91", m["jain"].Summary())
	}
	if m["rtt_infl_p50"].N() != 1 {
		t.Errorf("rtt_infl_p50 N = %d, want 1", m["rtt_infl_p50"].N())
	}
	if m["game_mbps"].N() != 2 {
		t.Errorf("game_mbps N = %d, want 2", m["game_mbps"].N())
	}
}

// TestAggregatorHealthTimeline: timeline lines are valid JSONL, one per
// completed run at a nanosecond throttle, and include cache counters from
// the injected hook.
func TestAggregatorHealthTimeline(t *testing.T) {
	var buf bytes.Buffer
	ag := NewAggregator()
	ag.Timeline = &buf
	ag.Every = time.Nanosecond
	ag.CacheStats = func() runcache.Stats { return runcache.Stats{Hits: 30, Misses: 10} }

	const n = 96
	ag.SweepStart(n)
	c := "h/cubic/B25/q2.0x"
	for i := 0; i < n; i++ {
		ag.RunDone(Update{Done: i + 1, Total: n, Cond: c, Iteration: i, Record: aggRecord(c, i)})
	}
	ag.SweepDone(false, time.Second)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < n {
		t.Fatalf("timeline has %d lines, want >= %d", len(lines), n)
	}
	var last HealthPoint
	for _, ln := range lines {
		if err := json.Unmarshal([]byte(ln), &last); err != nil {
			t.Fatalf("timeline line is not valid JSON: %v\n%s", err, ln)
		}
	}
	if !last.Final || last.Done != n || last.Total != n {
		t.Errorf("final line = %+v, want final done=%d", last, n)
	}
	if last.CacheHits != 30 || last.CacheLookups != 40 || math.Abs(last.CacheHitPct-75) > 1e-9 {
		t.Errorf("cache fields = %d/%d/%.1f%%, want 30/40/75%%", last.CacheHits, last.CacheLookups, last.CacheHitPct)
	}
}

// TestAggregatorConcurrentHammer drives RunDone from 8 goroutines while a
// 9th polls Snapshot and a 10th scrapes the live HTTP endpoint — the race
// coverage the telemetry path needs (run under -race in CI).
func TestAggregatorConcurrentHammer(t *testing.T) {
	ag := NewAggregator()
	ag.Timeline = io.Discard
	ag.Every = time.Nanosecond
	ag.CacheStats = func() runcache.Stats { return runcache.Stats{Hits: 1, Misses: 1} }

	ts, err := ServeTelemetry("127.0.0.1:0", ag)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	const workers, per = 8, 50
	ag.SweepStart(workers * per)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot poller.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := ag.Snapshot()
				if s.Done > workers*per {
					t.Error("done overran total")
					return
				}
			}
		}
	}()
	// HTTP scraper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			path := "/metrics"
			if i%2 == 1 {
				path = "/snapshot"
			}
			resp, err := http.Get("http://" + ts.Addr() + path)
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := fmt.Sprintf("w%d/cubic/B25/q2.0x", w)
			for i := 0; i < per; i++ {
				ag.RunDone(Update{Cond: c, Iteration: i, Record: aggRecord(c, i)})
			}
		}(w)
	}
	// Wait for producers by watching the done counter, then stop the pollers.
	for ag.Done() < workers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	ag.SweepDone(false, time.Second)

	snap := ag.Snapshot()
	if snap.Done != workers*per {
		t.Fatalf("done = %d, want %d", snap.Done, workers*per)
	}
	if got := snap.Campaign["game_mbps"].N(); got != int64(workers*per) {
		t.Errorf("campaign game_mbps N = %d, want %d", got, workers*per)
	}
	for _, c := range snap.Conditions {
		if c.Runs != per {
			t.Errorf("cond %s runs = %d, want %d", c.Cond, c.Runs, per)
		}
	}
}

// TestTelemetryEndpoints checks the content of both endpoints against a
// small deterministic campaign.
func TestTelemetryEndpoints(t *testing.T) {
	ag := NewAggregator()
	ag.CacheStats = func() runcache.Stats { return runcache.Stats{Hits: 5, Misses: 5} }
	feed(ag, []string{"e/cubic/B25/q2.0x"}, 10, []int{3, 1, 4, 0, 5, 9, 2, 6, 8, 7})

	ts, err := ServeTelemetry("127.0.0.1:0", ag)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + ts.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}

	prom := get("/metrics")
	for _, want := range []string{
		"gs_runs_total 10", "gs_runs_done 10", "gs_runs_per_sec",
		"gs_cache_hit_pct 50", "gs_metric_mean{metric=\"game_mbps\"}",
		"gs_metric_quantile{metric=\"rtt_ms\",q=\"0.50\"}",
		"gs_cond_runs{cond=\"e/cubic/B25/q2.0x\"} 10",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SnapshotSchema || snap.Done != 10 {
		t.Errorf("snapshot = schema %q done %d", snap.Schema, snap.Done)
	}
	if snap.Campaign["game_mbps"].N() != 10 {
		t.Errorf("snapshot campaign game_mbps N = %d", snap.Campaign["game_mbps"].N())
	}

	index := get("/")
	if !strings.Contains(index, "10/10 runs") {
		t.Errorf("index = %q", index)
	}
}

// TestSnapshotFileRoundTrip: WriteSnapshot/ReadSnapshot preserve sketches,
// and schema mismatches are rejected.
func TestSnapshotFileRoundTrip(t *testing.T) {
	ag := NewAggregator()
	feed(ag, []string{"p/cubic/B25/q2.0x"}, 15, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	snap := ag.Snapshot()

	path := t.TempDir() + "/telemetry.json"
	if err := WriteSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := snap.Campaign["game_mbps"]
	got := back.Campaign["game_mbps"]
	if got.N() != orig.N() || got.Mean() != orig.Mean() || got.CI95() != orig.CI95() {
		t.Error("round trip lost campaign moments")
	}
	if got.Quantile(0.9) != orig.Quantile(0.9) {
		t.Error("round trip changed quantiles")
	}
	if len(back.Conditions) != 1 || back.Conditions[0].Metrics["rtt_ms"].N() != 15 {
		t.Error("round trip lost condition sketches")
	}

	bad := path + ".bad"
	if err := WriteSnapshot(bad, &Snapshot{Schema: "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bad); err == nil {
		t.Error("schema mismatch not rejected")
	}
}

// TestMultiProgress: the tee forwards every callback to all sinks and
// collapses degenerate cases.
func TestMultiProgress(t *testing.T) {
	if MultiProgress() != nil || MultiProgress(nil, nil) != nil {
		t.Error("empty tee should be nil")
	}
	p := NewPrinter(io.Discard)
	if MultiProgress(nil, p) != Progress(p) {
		t.Error("single-sink tee should unwrap")
	}
	var buf bytes.Buffer
	pr := NewPrinter(&buf)
	pr.Every = 0
	ag := NewAggregator()
	tee := MultiProgress(pr, ag)
	tee.SweepStart(1)
	tee.RunDone(Update{Done: 1, Total: 1, Cond: "m/cubic/B25/q2.0x", Iteration: 0,
		Record: aggRecord("m/cubic/B25/q2.0x", 0)})
	tee.SweepDone(false, time.Second)
	if !strings.Contains(buf.String(), "1/1") {
		t.Error("printer sink missed the update")
	}
	if ag.Done() != 1 || ag.Snapshot().Campaign["fps"].N() != 1 {
		t.Error("aggregator sink missed the update")
	}
}
