package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// TestUnreadFlags checks each mode rejects the flags it would otherwise
// silently ignore, and accepts its own flags plus the profiling flags.
func TestUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		mode string
		set  []string
		want []string
	}{
		{"single", []string{"capacity", "cca", "queue", "scale", "seed", "system"}, nil},
		{"single", []string{"cpuprofile", "memprofile", "probe", "probe-out"}, nil},
		{"single", []string{"chaos-runs", "scale", "workers"}, []string{"chaos-runs", "workers"}},
		{"scenario", []string{"cache", "progress", "runlog", "scenario"}, nil},
		{"scenario", []string{"cpuprofile", "scenario"}, nil},
		{"scenario", []string{"events", "probe", "probe-interval", "probe-out", "scenario"}, nil},
		{"scenario", []string{"capacity", "cca", "scenario"}, []string{"capacity", "cca"}},
		{"scenario", []string{"scale", "scenario", "seed"}, []string{"scale", "seed"}},
		{"chaos", []string{"cache", "chaos", "chaos-runs", "invariants-out", "scale", "seed", "workers"}, nil},
		{"chaos", []string{"chaos", "scenario"}, []string{"scenario"}},
		{"chaos", []string{"chaos", "probe", "queue"}, []string{"probe", "queue"}},
	} {
		if got := unreadFlags(tc.mode, tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s mode with %v: unread %v, want %v", tc.mode, tc.set, got, tc.want)
		}
	}
}

// TestEveryFlagHasAMode checks modeFlags covers every flag main defines, so
// no flag is rejected in every mode.
func TestEveryFlagHasAMode(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defs := regexp.MustCompile(`flag\.[A-Z]\w*\((?:&[\w.]+, *)?"([^"]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(defs) < 21 {
		t.Fatalf("found only %d flag definitions", len(defs))
	}
	for _, d := range defs {
		read := false
		for mode := range modeFlags {
			read = read || len(unreadFlags(mode, []string{d[1]})) == 0
		}
		if !read {
			t.Errorf("flag -%s is read by no mode", d[1])
		}
	}
}

// TestCheckNames checks an unknown -system, -cca or -aqm name is rejected
// by flag before any run, instead of panicking inside it.
func TestCheckNames(t *testing.T) {
	for _, tc := range []struct {
		system, cca, aqm string
		want             string
	}{
		{"stadia", "cubic", "droptail", ""},
		{"luna", "cubic,bbr", "fq_codel", ""},
		{"geforce", "none", "codel", ""},
		{"geforce", "", "codel", ""},
		{"nope", "cubic", "droptail", `-system: unknown system "nope" (want stadia, geforce, or luna)`},
		{"stadia", "quic", "droptail", `-cca: unknown cca "quic"`},
		{"stadia", "cubic,nope", "droptail", `-cca: unknown cca "nope"`},
		{"stadia", "cubic,none", "droptail", `-cca: unknown cca "none"`},
		{"stadia", "cubic", "nope", `-aqm: unknown aqm "nope" (want droptail, codel, or fq_codel)`},
	} {
		err := checkNames(tc.system, tc.cca, tc.aqm)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("checkNames(%q, %q, %q) = %v, want %q", tc.system, tc.cca, tc.aqm, err, tc.want)
		}
	}
}

// TestCheckBounds checks an out-of-range -capacity, -queue or -scale is
// rejected by flag before any run, with the bounds the .scn rate, queue
// and scale keys enforce: a zero or NaN capacity never finished, and a
// negative queue or scale ran under a nonsense label or at full fidelity.
func TestCheckBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		capacity, queue, scale float64
		want                   string
	}{
		{25, 2, 1, ""},
		{0.001, 1000, 100, ""},
		{100, 0.5, 0.05, ""},
		{0, 2, 1, "-capacity 0 must be positive"},
		{-5, 2, 1, "-capacity -5 must be positive"},
		{nan, 2, 1, "-capacity NaN must be positive"},
		{inf, 2, 1, "-capacity +Inf must be positive"},
		{1e-7, 2, 1, "-capacity 1e-07 must be positive"},
		{25, -1, 1, "-queue -1 outside (0,1000] BDP multiples"},
		{25, 0, 1, "-queue 0 outside (0,1000] BDP multiples"},
		{25, nan, 1, "-queue NaN outside (0,1000] BDP multiples"},
		{25, 1001, 1, "-queue 1001 outside (0,1000] BDP multiples"},
		{25, 2, -1, "-scale -1 outside (0,100]"},
		{25, 2, 0, "-scale 0 outside (0,100]"},
		{25, 2, nan, "-scale NaN outside (0,100]"},
		{25, 2, 101, "-scale 101 outside (0,100]"},
	} {
		err := checkBounds(tc.capacity, tc.queue, tc.scale)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("checkBounds(%g, %g, %g) = %v, want %q", tc.capacity, tc.queue, tc.scale, err, tc.want)
		}
	}
}

// TestCheckProbe checks a negative -probe-interval or -events is rejected
// by flag before any run: the probe used to sample every 100 ms and log no
// events instead, exiting 0.
func TestCheckProbe(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		events   int
		want     string
	}{
		{100 * time.Millisecond, 0, ""},
		{0, 4096, ""},
		{-5 * time.Millisecond, 0, "-probe-interval -5ms must not be negative"},
		{time.Second, -3, "-events -3 must not be negative"},
	} {
		err := checkProbe(tc.interval, tc.events)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("checkProbe(%v, %d) = %v, want %q", tc.interval, tc.events, err, tc.want)
		}
	}
}

// TestFlagSpecMatchesScenarioFile checks the flag-built spec of
// -cca cubic,bbr is the one-link .scn file it stands for: the same run
// configuration, hence the same cache key, labelled with the first flow's
// CCA.
func TestFlagSpecMatchesScenarioFile(t *testing.T) {
	scn, err := scenario.Parse(strings.NewReader(`
[run]
seed  = 3
scale = 0.1

[game]
system = luna

[link bottleneck]
rate  = 50mbit
delay = 8.25ms
queue = 0.5
aqm   = codel

[flow a]
cca = cubic

[flow b]
cca = bbr
`))
	if err != nil {
		t.Fatal(err)
	}
	flags := flagSpec("luna", "cubic,bbr", 50, 0.5, "codel", 3, 0.1)
	want, got := scn.RunConfig(0), flags.RunConfig(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag-built run config\n%+v\nwant the .scn one\n%+v", got, want)
	}
	if got.CCA != "cubic" || len(got.Competitors) != 2 {
		t.Errorf("label %q with %d competitors, want cubic with 2", got.CCA, len(got.Competitors))
	}
	gk, _ := experiment.CacheKey(got)
	wk, ok := experiment.CacheKey(want)
	if !ok || gk != wk {
		t.Errorf("cache keys differ: %x vs %x", gk, wk)
	}
}

// TestSummaryPrintsUnsettledRecoveryAsBound runs -system stadia -cca cubic
// -capacity 15 -queue 7 -scale 0.1, whose game flow never settles back
// after the competitor leaves: the summary prints the recovery window as a
// bound (">17s"), not as a measured time, and carries the record's TCP
// throughput and loss.
func TestSummaryPrintsUnsettledRecoveryAsBound(t *testing.T) {
	sp := flagSpec("stadia", "cubic", 15, 7, experiment.AQMDropTail, 1, 0.1)
	res := experiment.Run(sp.RunConfig(0))
	rec := res.Record(0)
	rr := metrics.MeasureResponseRecovery(res.GameSeries(), res.Cfg.Timeline)
	if rr.Recovered || !rr.Responded {
		t.Fatalf("responded %v recovered %v, want a response and no recovery", rr.Responded, rr.Recovered)
	}
	var b bytes.Buffer
	printSummary(&b, res, rec, rr)
	out := b.String()
	for _, want := range []string{
		"response 2s,",
		"recovery >17s,",
		fmt.Sprintf("tcp %.1f Mb/s,", rec.TCPMbps),
		fmt.Sprintf("loss %.2f%%\n", rec.LossPct),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
	if rec.TCPMbps <= 0 {
		t.Errorf("record tcp %.2f Mb/s, want the competitor's throughput", rec.TCPMbps)
	}
}
