package figures

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/runcache"
	"repro/internal/units"
)

// tinyOpts keeps campaign tests fast: 1 iteration, compressed timeline.
var tinyOpts = Options{Iterations: 1, TimeScale: 0.15, Workers: 8}

// The campaign is shared across tests in this package — building it once
// keeps the full test suite quick while still exercising every table.
var shared = NewCampaign(tinyOpts)

func TestTable1Rendering(t *testing.T) {
	out := shared.Table1().String()
	for _, want := range []string{"Table 1", "stadia", "geforce", "luna", "27.5 (2.3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2Panels(t *testing.T) {
	panels := shared.Figure2()
	if len(panels) != 6 {
		t.Fatalf("panels = %d, want 6 (3 systems x 2 CCAs)", len(panels))
	}
	csv := panels["stadia_vs_cubic"]
	if !strings.HasPrefix(csv, "t_sec,") {
		t.Errorf("panel CSV header malformed: %q", csv[:40])
	}
	if !strings.Contains(csv, "q2.0x_mean_mbps") || !strings.Contains(csv, "q7.0x_ci95") {
		t.Error("panel CSV missing queue columns")
	}
	lines := strings.Count(csv, "\n")
	if lines < 50 {
		t.Errorf("panel CSV has only %d lines", lines)
	}
}

func TestFigure3Heatmaps(t *testing.T) {
	maps := shared.Figure3()
	if len(maps) != 6 {
		t.Fatalf("heatmaps = %d, want 6", len(maps))
	}
	out := maps[0].String()
	for _, want := range []string{"Figure 3", "35 Mb/s", "15 Mb/s", "q 0.5x", "q 7x"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap missing %q:\n%s", want, out)
		}
	}
}

func TestFigure4PointsComplete(t *testing.T) {
	pts := shared.Figure4()
	// 3 systems x 2 CCAs x 9 conditions.
	if len(pts) != 54 {
		t.Fatalf("points = %d, want 54", len(pts))
	}
	for _, p := range pts {
		if p.Adaptiveness < 0 || p.Adaptiveness > 1 {
			t.Errorf("%s/%s adaptiveness %v out of [0,1]", p.System, p.CCA, p.Adaptiveness)
		}
		if p.Fairness < -1 || p.Fairness > 1 {
			t.Errorf("%s/%s fairness %v out of [-1,1]", p.System, p.CCA, p.Fairness)
		}
	}
	if !strings.Contains(shared.Figure4Table().String(), "Adaptiveness") {
		t.Error("Figure 4 table missing header")
	}
}

func TestTables345Render(t *testing.T) {
	t3 := shared.Table3().String()
	if !strings.Contains(t3, "Table 3") || !strings.Contains(t3, "15 Mb/s") {
		t.Errorf("Table 3 malformed:\n%s", t3)
	}
	t4 := shared.Table4().String()
	if !strings.Contains(t4, "stadia/cubic") || !strings.Contains(t4, "luna/bbr") {
		t.Errorf("Table 4 missing columns:\n%s", t4)
	}
	t5 := shared.Table5().String()
	if !strings.Contains(t5, "Table 5") {
		t.Errorf("Table 5 malformed:\n%s", t5)
	}
	rows := strings.Split(strings.TrimSpace(t4), "\n")
	if len(rows) != 3+9 { // title + header + rule + 9 condition rows
		t.Errorf("Table 4 has %d lines, want 12:\n%s", len(rows), t4)
	}
}

func TestLossTables(t *testing.T) {
	out := shared.LossTables().String()
	if !strings.Contains(out, "Loss rate") || !strings.Contains(out, "stadia/solo") {
		t.Errorf("loss table malformed:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	out := shared.Summary()
	if !strings.Contains(out, "vs TCP cubic") || !strings.Contains(out, "vs TCP bbr") {
		t.Errorf("summary malformed:\n%s", out)
	}
}

func TestCampaignCachesSweeps(t *testing.T) {
	c := NewCampaign(tinyOpts)
	a := c.Baseline()
	b := c.Baseline()
	if a != b {
		t.Error("Baseline re-ran instead of caching")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.defaults()
	if o.Iterations != 15 || o.Workers != experiment.DefaultWorkers() {
		t.Errorf("defaults = %+v", o)
	}
}

func TestCampaignRespectsAQM(t *testing.T) {
	c := NewCampaign(Options{Iterations: 1, TimeScale: 0.1, Workers: 4, AQM: experiment.AQMFQCoDel})
	sweep := c.Contended()
	found := sweep.Find(experiment.Condition{
		System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25),
		QueueMult: 2, AQM: experiment.AQMFQCoDel,
	})
	if found == nil {
		t.Fatal("FQ-CoDel campaign did not tag conditions with the AQM")
	}
}

func TestExtensionTablesRender(t *testing.T) {
	// A tiny dedicated campaign keeps the extension sweeps fast.
	c := NewCampaign(Options{Iterations: 1, TimeScale: 0.1, Workers: 4})
	harm := c.HarmTable().String()
	if !strings.Contains(harm, "Harm analysis") || !strings.Contains(harm, "Thr harm") {
		t.Errorf("harm table malformed:\n%s", harm)
	}
	rows := strings.Count(harm, "\n")
	if rows < 54 { // 3 systems x 2 CCAs x 9 conditions + headers
		t.Errorf("harm table has %d lines", rows)
	}
}

func TestMixTableRenders(t *testing.T) {
	c := NewCampaign(Options{Iterations: 1, TimeScale: 0.1, Workers: 4})
	out := c.MixTable().String()
	for _, want := range []string{"Traffic mixtures", "dash/cubic", "videocall", "2x cubic"} {
		if !strings.Contains(out, want) {
			t.Errorf("mix table missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTableRenders(t *testing.T) {
	c := NewCampaign(Options{Iterations: 1, TimeScale: 0.1, Workers: 4})
	out := c.AblationTable().String()
	for _, want := range []string{"Ablations", "stadia: fixed", "luna: no loss-persistence", "FEC disabled"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing %q:\n%s", want, out)
		}
	}
}

func TestAQMTableRenders(t *testing.T) {
	c := NewCampaign(Options{Iterations: 2, TimeScale: 0.1, Workers: 4})
	out := c.AQMTable().String()
	for _, want := range []string{"Queue discipline", "droptail", "codel", "fq_codel"} {
		if !strings.Contains(out, want) {
			t.Errorf("AQM table missing %q:\n%s", want, out)
		}
	}
	// Rows aggregate in plan order, so the table is byte-identical at any
	// worker count and when replayed from the run cache.
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	serial := NewCampaign(Options{Iterations: 2, TimeScale: 0.1, Workers: 1, Cache: cache})
	for pass := 0; pass < 2; pass++ {
		if got := serial.AQMTable().String(); got != out {
			t.Fatalf("pass %d: serial cached table differs:\n%s\nvs\n%s", pass, got, out)
		}
	}
	if st := cache.Stats(); st.Hits != 18 {
		t.Errorf("cache hits = %d, want 18 on the replay", st.Hits)
	}
}
