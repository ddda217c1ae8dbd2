package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/units"
)

// headlineSpec reproduces the paper's 1-vs-1 condition: Stadia against one
// Cubic bulk flow over a 25 Mb/s bottleneck with a 2×BDP drop-tail queue
// and 16.5 ms base RTT. It must compile to exactly the configuration the
// CLI flags build.
const headlineSpec = `
# The paper's headline condition, as a scenario file.
[run]
name = paper-1v1
seed = 1

[game]
system = stadia

[link bottleneck]
rate  = 25mbit
delay = 8.25ms   # one-way; base RTT = 2 x 8.25 = 16.5 ms
queue = 2        # x BDP
aqm   = droptail

[flow bulk]
kind = iperf
cca  = cubic
`

func parseSpec(t *testing.T, text string) *Spec {
	t.Helper()
	sp, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sp
}

func TestHeadlineSpecMatchesFlagConfig(t *testing.T) {
	sp := parseSpec(t, headlineSpec)

	// The paper's headline condition built as a plain RunConfig, the way
	// the paper grid builds its cells.
	flagCfg := experiment.RunConfig{
		Condition: experiment.Condition{
			System:    gamestream.Stadia,
			CCA:       "cubic",
			Capacity:  units.Mbps(25),
			QueueMult: 2,
			AQM:       experiment.AQMDropTail,
		},
		Timeline: metrics.PaperTimeline,
		Seed:     1,
	}.Defaults()

	specCfg := sp.RunConfig(0).Defaults()
	if !reflect.DeepEqual(specCfg, flagCfg) {
		t.Fatalf("spec-built config differs from flag-built:\nspec: %+v\nflag: %+v", specCfg, flagCfg)
	}
	if key1, ok1 := experiment.CacheKey(specCfg); ok1 {
		key2, ok2 := experiment.CacheKey(flagCfg)
		if !ok2 || key1 != key2 {
			t.Fatalf("cache keys differ: %v vs %v", key1, key2)
		}
	} else {
		t.Fatal("spec config not cacheable")
	}
}

// TestHeadlineSpecRunByteIdentical runs both constructions end-to-end and
// requires bit-identical results: a scenario file stands for a plain
// RunConfig without changing a single byte of output.
func TestHeadlineSpecRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	sp := parseSpec(t, strings.Replace(headlineSpec, "seed = 1", "seed = 1\nscale = 0.1", 1))
	flagCfg := experiment.RunConfig{
		Condition: experiment.Condition{
			System:    gamestream.Stadia,
			CCA:       "cubic",
			Capacity:  units.Mbps(25),
			QueueMult: 2,
		},
		Timeline: metrics.PaperTimeline.Scale(0.1),
		Seed:     1,
	}
	a := experiment.Run(sp.RunConfig(0))
	b := experiment.Run(flagCfg)
	if da, db := Digest(a), Digest(b); da != db {
		t.Fatalf("spec run digest %s != flag run digest %s", da, db)
	}
	// The runlog records must agree too, once the wall-clock-only engine
	// fields are ignored.
	ra, rb := a.Record(0), b.Record(0)
	ra.Engine.WallSeconds, rb.Engine.WallSeconds = 0, 0
	ra.Engine.Speedup, rb.Engine.Speedup = 0, 0
	ra.Engine.EventsPerSecond, rb.Engine.EventsPerSecond = 0, 0
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("runlog records differ:\nspec: %+v\nflag: %+v", ra, rb)
	}
}

func TestParseFullSpec(t *testing.T) {
	sp := parseSpec(t, `
[run]
seed = 7
iterations = 3
scale = 0.5

[game]
system = luna

[link access]
rate  = 100mbit
delay = 2ms

[link bottleneck]
rate  = 25mbit
delay = 6.25ms
queue = 4
aqm   = codel

[path]
hops = access, bottleneck

[flow a]
kind = iperf
cca  = bbr

[flow b]
kind = dash

[flow call]
kind = videocall

[impair]
loss      = 1%
jitter    = 2ms
duplicate = 0.5%

[schedule]
step = 100s rate=10mbit
step = 120s rate=25mbit

[population]
flows   = 8
mix     = iperf:cubic,dash
mean_on = 20s
shape   = 1.5
`)
	if sp.Seed != 7 || sp.Iterations != 3 || sp.Scale != 0.5 {
		t.Fatalf("run header: %+v", sp)
	}
	if got := sp.BaseRTT(); got != 2*(2*time.Millisecond+6250*time.Microsecond) {
		t.Fatalf("BaseRTT = %v", got)
	}
	cfg := sp.RunConfig(1)
	if cfg.Seed != 8 {
		t.Fatalf("iteration seed = %d, want 8", cfg.Seed)
	}
	if cfg.Capacity != units.Mbps(25) || cfg.QueueMult != 4 || cfg.AQM != experiment.AQMCoDel {
		t.Fatalf("bottleneck mapping: %+v", cfg.Condition)
	}
	if len(cfg.Competitors) != 3 || cfg.Competitors[0].CCA != "bbr" ||
		cfg.Competitors[1].Kind != experiment.CompDash || cfg.Competitors[2].Kind != experiment.CompVideoCall {
		t.Fatalf("competitors: %+v", cfg.Competitors)
	}
	if cfg.Impair.LossRate != 0.01 || cfg.Impair.Jitter != 2*time.Millisecond || cfg.Impair.Duplicate != 0.005 {
		t.Fatalf("impair: %+v", cfg.Impair)
	}
	if len(cfg.Schedule) != 2 || cfg.Schedule[0].Rate != units.Mbps(10) {
		t.Fatalf("schedule: %+v", cfg.Schedule)
	}
	if cfg.Population.Flows != 8 || len(cfg.Population.Mix) != 2 || cfg.Population.MeanOn != 20*time.Second {
		t.Fatalf("population: %+v", cfg.Population)
	}
	if cfg.Timeline != metrics.PaperTimeline.Scale(0.5) {
		t.Fatalf("timeline: %+v", cfg.Timeline)
	}
}

// TestMultiFlowSpecLabel checks a spec with several flows is labelled
// with its first TCP flow's CCA (a videocall flow carries none), so its
// condition string, record and cache key name a competitor instead of
// "solo"; a single non-iperf flow is labelled the same way.
func TestMultiFlowSpecLabel(t *testing.T) {
	for _, tc := range []struct {
		flows string
		want  string
	}{
		{"[flow a]\ncca = bbr\n[flow b]\ncca = cubic\n", "bbr"},
		{"[flow call]\nkind = videocall\n[flow video]\nkind = dash\ncca = bbr\n[flow bulk]\ncca = cubic\n", "bbr"},
		{"[flow video]\nkind = dash\n", "cubic"},
		{"[flow call]\nkind = videocall\n", ""},
	} {
		cfg := parseSpec(t, "[game]\nsystem = stadia\n[link b]\nrate = 25mbit\ndelay = 8.25ms\n"+tc.flows).RunConfig(0)
		if cfg.CCA != tc.want || len(cfg.Competitors) == 0 {
			t.Errorf("%q: label %q with %d competitors, want %q", tc.flows, cfg.CCA, len(cfg.Competitors), tc.want)
		}
	}
}

func TestFlowWindowOverridesTimeline(t *testing.T) {
	sp := parseSpec(t, `
[game]
system = stadia
[link l]
rate = 25mbit
delay = 8.25ms
[flow f]
kind = iperf
start = 60s
stop  = 120s
`)
	cfg := sp.RunConfig(0)
	if cfg.Timeline.FlowStart != 60*time.Second || cfg.Timeline.FlowStop != 120*time.Second {
		t.Fatalf("timeline window: %+v", cfg.Timeline)
	}
	if cfg.Timeline.TraceEnd != metrics.PaperTimeline.TraceEnd {
		t.Fatalf("trace end changed: %v", cfg.Timeline.TraceEnd)
	}
}

func TestParseRejectsHostileSpecs(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"nan rate", "[game]\nsystem = stadia\n[link l]\nrate = NaN\ndelay = 1ms", "bad rate"},
		{"inf rate", "[game]\nsystem = stadia\n[link l]\nrate = +Inf\ndelay = 1ms", "bad rate"},
		{"negative delay", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\ndelay = -5ms", "delay"},
		{"nan queue", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\nqueue = NaN", "queue"},
		{"cyclic path", "[game]\nsystem = stadia\n[link a]\nrate = 25mbit\n[link b]\nrate = 50mbit\n[path]\nhops = a, b, a", "twice"},
		{"unknown hop", "[game]\nsystem = stadia\n[link a]\nrate = 25mbit\n[path]\nhops = a, ghost", "not a declared link"},
		{"unknown cca", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[flow f]\ncca = quic", "unknown cca"},
		{"unknown system", "[game]\nsystem = psnow\n[link l]\nrate = 25mbit", "unknown system"},
		{"unknown section", "[warp]\nspeed = 9", "unknown section"},
		{"unknown key", "[game]\nsystem = stadia\nconsole = yes", "unknown key"},
		{"duplicate section", "[game]\nsystem = stadia\n[game]\nsystem = luna", "duplicate section"},
		{"duplicate link", "[game]\nsystem = stadia\n[link l]\nrate = 1mbit\n[link l]\nrate = 2mbit", "duplicate link"},
		{"duplicate key", "[game]\nsystem = stadia\nsystem = luna", "duplicate key"},
		{"no topology", "[game]\nsystem = stadia", "no [link]"},
		{"missing system", "[link l]\nrate = 25mbit", "missing [game]"},
		{"videocall cca", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[flow f]\nkind = videocall\ncca = cubic", "videocall"},
		{"inverted window", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[flow f]\nkind = iperf\nstart = 100s\nstop = 50s", "not before"},
		{"bare value", "[game]\nsystem = stadia\njunk", "key = value"},
		{"nan loss", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[impair]\nloss = NaN", "probability"},
		{"negative flows", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nflows = -3", "flows -3 outside [0,100000]"},
		{"huge flows", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nflows = 100001", "flows 100001 outside [0,100000]"},
		{"negative mean_on", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nflows = 4\nmean_on = -2s", "mean_on -2s outside [0,24h]"},
		{"huge mean_off", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nflows = 4\nmean_off = 25h", "mean_off 25h0m0s outside [0,24h]"},
		{"huge streams", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nstreams = 100001", "streams 100001 outside"},
		{"negative mean_off", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nflows = 4\nmean_off = -1s", "mean_off -1s outside"},
		{"huge iterations", "[run]\niterations = 99999999", "outside"},
		{"bad schedule", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[schedule]\nstep = 10s warp=9", "step"},
		// Extra game streams take flow IDs 600..999 and [flow] i takes 2+10·i.
		{"streams past the stream IDs", "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nstreams = 401", "streams 401 outside [0,400]"},
		{"flows past the stream IDs", flowsSpec(61), "more than 60 flows"},
		// Only the bottleneck has a queue; RunConfig would drop these keys.
		{"queue off the bottleneck", "[game]\nsystem = stadia\n[link access]\nrate = 1000mbit\nqueue = 7\n[link bn]\nrate = 25mbit\n[path]\nhops = access, bn", `link "access" sets queue`},
		{"aqm off the bottleneck", "[game]\nsystem = stadia\n[link access]\nrate = 1000mbit\naqm = codel\n[link bn]\nrate = 25mbit\nqueue = 2\n[path]\nhops = access, bn", `link "access" sets aqm`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted:\n%s", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// flowsSpec is a one-link spec with n [flow] sections.
func flowsSpec(n int) string {
	var b strings.Builder
	b.WriteString("[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "[flow f%d]\ncca = cubic\n", i)
	}
	return b.String()
}

// TestFlowIDBoundsAccepted: [flow] i runs on flow 2+10·i and extra game
// streams on 600+j, below the population's 1000+i; the caps that keep the
// IDs distinct (TestParseRejectsHostileSpecs) still admit their maxima.
func TestFlowIDBoundsAccepted(t *testing.T) {
	if _, err := Parse(strings.NewReader(flowsSpec(60))); err != nil {
		t.Fatalf("60 flows rejected: %v", err)
	}
	pop := "[game]\nsystem = stadia\n[link l]\nrate = 25mbit\n[population]\nflows = 1\nstreams = 400\n"
	if _, err := Parse(strings.NewReader(pop)); err != nil {
		t.Fatalf("streams = 400 rejected: %v", err)
	}
}

func TestMultiLinkBottleneckSelection(t *testing.T) {
	sp := parseSpec(t, `
[game]
system = geforce
[link fast]
rate  = 1000mbit
delay = 1ms
[link slow]
rate  = 15mbit
delay = 5ms
queue = 0.5
aqm   = fq_codel
[path]
hops = fast, slow
`)
	cfg := sp.RunConfig(0)
	if cfg.Capacity != units.Mbps(15) {
		t.Fatalf("capacity = %v, want bottleneck 15mbit", cfg.Capacity)
	}
	if cfg.QueueMult != 0.5 || cfg.AQM != experiment.AQMFQCoDel {
		t.Fatalf("queue config should come from the bottleneck hop: %+v", cfg.Condition)
	}
	if cfg.BaseRTT != 12*time.Millisecond {
		t.Fatalf("BaseRTT = %v, want 12ms (2 x (1+5)ms)", cfg.BaseRTT)
	}
}
