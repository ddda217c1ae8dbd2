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
