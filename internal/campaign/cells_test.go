package campaign

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func TestGridCellsMatchSweepStriping(t *testing.T) {
	// Seed 0 is a seed like any other: expansion must not default it.
	for _, text := range []string{gridSpecText, strings.Replace(gridSpecText, "seed = 7", "seed = 0", 1)} {
		checkGridStriping(t, parseSpec(t, text))
	}
}

func checkGridStriping(t *testing.T, sp *Spec) {
	cells := sp.Cells()
	if len(cells) != sp.Total() {
		t.Fatalf("len(cells) = %d, want %d", len(cells), sp.Total())
	}
	// Re-derive the expected order the way RunSweep builds its job list:
	// iteration outer, then cca, capacity, queue, system inner.
	i := 0
	for it := 0; it < sp.Iterations; it++ {
		for _, cca := range sp.CCAs {
			for _, capy := range sp.Capacities {
				for _, qm := range sp.QueueMults {
					for _, sys := range sp.Systems {
						want := experiment.Condition{System: sys, CCA: cca, Capacity: capy, QueueMult: qm}
						c := cells[i]
						if c.Cond != want || c.Iter != it || c.Index != i {
							t.Fatalf("cell %d = %+v, want cond=%v iter=%d", i, c, want, it)
						}
						if c.Seed != experiment.RunSeed(sp.Seed, it, want) {
							t.Fatalf("cell %d seed mismatch", i)
						}
						if c.BaseRTT != 0 {
							t.Fatalf("grid cell %d has sampled RTT %v", i, c.BaseRTT)
						}
						i++
					}
				}
			}
		}
	}
}

func TestMCCellsDeterministicAndInBounds(t *testing.T) {
	sp := parseSpec(t, mcSpecText)
	cells := sp.Cells()
	if len(cells) != sp.Draws {
		t.Fatalf("len(cells) = %d, want %d", len(cells), sp.Draws)
	}
	again := sp.Cells()
	if !reflect.DeepEqual(cells, again) {
		t.Fatal("expansion is not deterministic")
	}
	seeds := map[uint64]bool{}
	for _, c := range cells {
		if mb := c.Cond.Capacity.Mbit(); mb < 10 || mb > 50 {
			t.Fatalf("cell %d capacity %g Mb/s outside rate_mbps support", c.Index, mb)
		}
		if ms := c.BaseRTT.Seconds() * 1000; ms < 10 || ms > 40 {
			t.Fatalf("cell %d RTT %g ms outside rtt_ms support", c.Index, ms)
		}
		switch c.Cond.QueueMult {
		case 0.5, 2, 7:
		default:
			t.Fatalf("cell %d queue mult %g not a declared point mass", c.Index, c.Cond.QueueMult)
		}
		if c.Cond.System != "stadia" {
			t.Fatalf("cell %d system %q", c.Index, c.Cond.System)
		}
		if c.Cond.CCA != "cubic" && c.Cond.CCA != "bbr" {
			t.Fatalf("cell %d cca %q", c.Index, c.Cond.CCA)
		}
		if seeds[c.Seed] {
			t.Fatalf("duplicate seed %d", c.Seed)
		}
		seeds[c.Seed] = true
		if c.Iter != c.Index {
			t.Fatalf("mc cell %d has iter %d", c.Index, c.Iter)
		}
	}
}

func TestMCDrawsVary(t *testing.T) {
	// With a 40 Mb/s-wide rate support, 10 draws collapsing to one value
	// would mean the per-draw RNG streams are correlated.
	sp := parseSpec(t, mcSpecText)
	caps := map[float64]bool{}
	for _, c := range sp.Cells() {
		caps[c.Cond.Capacity.Mbit()] = true
	}
	if len(caps) < 5 {
		t.Fatalf("only %d distinct capacities over %d draws", len(caps), sp.Draws)
	}
}

func TestShardRangesPartition(t *testing.T) {
	sp := parseSpec(t, gridSpecText) // 32 cells, 3 shards → 11/11/10
	n := sp.ShardCount()
	covered := 0
	prevEnd := 0
	for i := 0; i < n; i++ {
		start, end := sp.ShardRange(i)
		if start != prevEnd {
			t.Fatalf("shard %d starts at %d, want %d", i, start, prevEnd)
		}
		if end <= start {
			t.Fatalf("shard %d empty range [%d,%d)", i, start, end)
		}
		covered += end - start
		prevEnd = end
	}
	if covered != sp.Total() || prevEnd != sp.Total() {
		t.Fatalf("shards cover %d of %d cells", covered, sp.Total())
	}
}
