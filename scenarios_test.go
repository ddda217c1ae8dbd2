package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/scenario"
)

// TestScenarioFilesParse keeps every shipped scenario file loadable and
// compilable to a cacheable run configuration — the same gate docs-check
// applies to markdown links. A scenario that ships broken is worse than no
// scenario at all.
func TestScenarioFilesParse(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.scn")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario files found under scenarios/")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			sp, err := scenario.ParseFile(f)
			if err != nil {
				t.Fatal(err)
			}
			iters := sp.Iterations
			if iters <= 0 {
				iters = 1
			}
			for it := 0; it < iters; it++ {
				cfg := sp.RunConfig(it).Defaults()
				if _, ok := experiment.CacheKey(cfg); !ok {
					t.Fatalf("iteration %d not cacheable: %+v", it, cfg)
				}
			}
		})
	}
}

// TestCampaignFilesParse applies the same ship-nothing-broken gate to the
// shipped campaign specs: each must parse, re-render to a canonical fixed
// point, and expand to cells that compile into cacheable runs.
func TestCampaignFilesParse(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.campaign")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no campaign files found under scenarios/")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			sp, err := campaign.ParseSpecFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Total() <= 0 {
				t.Fatal("campaign expands to no runs")
			}
			canon := sp.Canonical()
			back, err := campaign.ParseSpec(strings.NewReader(canon))
			if err != nil || back.Canonical() != canon {
				t.Fatalf("canonical text not a fixed point (err %v):\n%s", err, canon)
			}
			cells := sp.Cells()
			if len(cells) != sp.Total() {
				t.Fatalf("expanded %d cells, want %d", len(cells), sp.Total())
			}
			for _, c := range []campaign.Cell{cells[0], cells[len(cells)-1]} {
				if _, ok := experiment.CacheKey(c.RunConfig(sp)); !ok {
					t.Fatalf("cell %d not cacheable", c.Index)
				}
			}
		})
	}
}

// TestPaperGridCampaignIsPaperSweep pins scenarios/paper_grid.campaign to
// the Go paper grid: every cell is the matching experiment.PaperSweep run
// (contended or solo) under the same cache key, so the campaign and gsbench
// share one set of runs.
func TestPaperGridCampaignIsPaperSweep(t *testing.T) {
	sp, err := campaign.ParseSpecFile("scenarios/paper_grid.campaign")
	if err != nil {
		t.Fatal(err)
	}
	type pos struct {
		cond experiment.Condition
		iter int
	}
	want := map[pos]experiment.RunConfig{}
	contended := experiment.PaperSweep()
	solo := experiment.PaperSweep()
	solo.CCAs = []string{""}
	for _, sw := range []experiment.SweepConfig{contended, solo} {
		for _, j := range sw.Jobs() {
			want[pos{j.Cfg.Condition, j.Iter}] = j.Cfg
		}
	}
	var nContended, nSolo int
	for _, c := range sp.Cells() {
		cfg, ok := want[pos{c.Cond, c.Iter}]
		if !ok {
			t.Fatalf("cell %d (%s, iteration %d) is not a paper-grid run", c.Index, c.Cond, c.Iter)
		}
		got, _ := experiment.CacheKey(c.RunConfig(sp))
		if key, _ := experiment.CacheKey(cfg); got != key {
			t.Fatalf("cell %d (%s, iteration %d): cache key differs from the PaperSweep run", c.Index, c.Cond, c.Iter)
		}
		if c.Cond.CCA == "" {
			nSolo++
		} else {
			nContended++
		}
	}
	if nContended != 810 || nSolo != 405 {
		t.Errorf("paper_grid.campaign has %d contended + %d solo runs, want 810 + 405", nContended, nSolo)
	}
}
