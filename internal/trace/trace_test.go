package trace

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestBitrateBins(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 0)
	if c.BinDuration() != 500*time.Millisecond {
		t.Fatalf("default bin = %v", c.BinDuration())
	}
	// 1 Mb/s for one second: 125000 bytes split over two bins.
	for i := 0; i < 10; i++ {
		eng.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			p := &packet.Packet{Flow: 1, Size: 12500}
			c.Tap(p)
			c.TapDelivered(p)
		})
	}
	eng.Run(sim.At(time.Second))
	series := c.BitrateSeries(1, 2)
	if len(series) != 2 {
		t.Fatalf("series length %d", len(series))
	}
	for i, v := range series {
		if v < 0.99 || v > 1.01 {
			t.Errorf("bin %d = %.3f Mb/s, want 1.0", i, v)
		}
	}
}

func TestRateBetween(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	eng.Schedule(250*time.Millisecond, func() {
		p := &packet.Packet{Flow: 2, Size: 62500}
		c.Tap(p)
		c.TapDelivered(p)
	})
	eng.Run(sim.At(2 * time.Second))
	// 62500 B in the first 0.5 s bin = 1 Mb/s over that bin.
	got := c.RateBetween(2, 0, sim.At(500*time.Millisecond))
	if got.Mbit() < 0.99 || got.Mbit() > 1.01 {
		t.Errorf("RateBetween = %v", got)
	}
	// Averaged over 2 s it is 0.25 Mb/s.
	got = c.RateBetween(2, 0, sim.At(2*time.Second))
	if got.Mbit() < 0.24 || got.Mbit() > 0.26 {
		t.Errorf("RateBetween full = %v", got)
	}
}

func TestLossAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	for i := 0; i < 100; i++ {
		c.Tap(&packet.Packet{Flow: 3, Size: 1000})
	}
	for i := 0; i < 5; i++ {
		c.OnDrop(&packet.Packet{Flow: 3, Size: 1000})
	}
	loss := c.LossBetween(3, 0, sim.At(500*time.Millisecond))
	if loss != 0.05 {
		t.Errorf("loss = %v, want 0.05", loss)
	}
	if c.Flow(3).Drops != 5 || c.Flow(3).Packets != 100 {
		t.Errorf("totals: %+v", c.Flow(3))
	}
}

func TestFlowsIndependent(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	c.Tap(&packet.Packet{Flow: 1, Size: 1000})
	c.Tap(&packet.Packet{Flow: 2, Size: 9000})
	c.TapDelivered(&packet.Packet{Flow: 1, Size: 1000})
	if c.Flow(1).Bytes != 1000 || c.Flow(2).Bytes != 9000 {
		t.Error("flows mixed")
	}
	if c.LossBetween(1, 0, sim.At(time.Second)) != 0 {
		t.Error("phantom loss")
	}
	if c.Flow(1).Delivered != 1000 || c.Flow(2).Delivered != 0 {
		t.Error("delivered accounting wrong")
	}
	off := c.OfferedSeries(2, 1)
	if off[0] == 0 {
		t.Error("offered series empty for tapped flow")
	}
}

func TestUnknownFlowEmpty(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	if c.RateBetween(9, 0, sim.At(time.Second)) != 0 {
		t.Error("unknown flow rate should be 0")
	}
	series := c.BitrateSeries(9, 4)
	for _, v := range series {
		if v != 0 {
			t.Error("unknown flow series should be zero")
		}
	}
}

func TestRateBetweenEdgeCases(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	p := &packet.Packet{Flow: 1, Size: 62500}
	c.Tap(p)
	c.TapDelivered(p)

	// Inverted and empty windows yield zero, not a panic or a negative rate.
	if got := c.RateBetween(1, sim.At(time.Second), 0); got != 0 {
		t.Errorf("inverted window rate = %v, want 0", got)
	}
	if got := c.RateBetween(1, sim.At(time.Second), sim.At(time.Second)); got != 0 {
		t.Errorf("empty window rate = %v, want 0", got)
	}
	// A window extending past the recorded bins averages over the full
	// requested span (missing bins count as zero traffic).
	got := c.RateBetween(1, 0, sim.At(4*time.Second))
	want := 62500 * 8.0 / 4 / 1e6 // Mb over 4 s
	if got.Mbit() < want*0.99 || got.Mbit() > want*1.01 {
		t.Errorf("partial-bins rate = %v Mb/s, want %v", got.Mbit(), want)
	}
	// A window entirely beyond the data is zero.
	if got := c.RateBetween(1, sim.At(10*time.Second), sim.At(20*time.Second)); got != 0 {
		t.Errorf("beyond-data rate = %v, want 0", got)
	}
}

func TestLossBetweenEdgeCases(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	for i := 0; i < 10; i++ {
		c.Tap(&packet.Packet{Flow: 7, Size: 1000})
	}
	c.OnDrop(&packet.Packet{Flow: 7, Size: 1000})

	if got := c.LossBetween(7, sim.At(time.Second), 0); got != 0 {
		t.Errorf("inverted window loss = %v, want 0", got)
	}
	// Never-seen flow: no packets means loss 0, and querying must not
	// fabricate counters for later queries.
	if got := c.LossBetween(42, 0, sim.At(time.Second)); got != 0 {
		t.Errorf("unseen flow loss = %v, want 0", got)
	}
	// Window past the data still divides by the packets actually offered.
	if got := c.LossBetween(7, 0, sim.At(time.Hour)); got != 0.1 {
		t.Errorf("beyond-data loss = %v, want 0.1", got)
	}
	// Window starting beyond the data has no packets: loss 0.
	if got := c.LossBetween(7, sim.At(time.Minute), sim.At(time.Hour)); got != 0 {
		t.Errorf("late window loss = %v, want 0", got)
	}
}

func TestSetHorizonPreallocates(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	c.SetHorizon(10 * time.Second) // 20 bins + 1
	f := c.flow(1)
	if cap(f.bins) < 21 {
		t.Fatalf("bins cap = %d, want >= 21", cap(f.bins))
	}
	// Taps within the horizon must not reallocate.
	base := &f.bins[:1][0]
	eng.Schedule(9*time.Second+900*time.Millisecond, func() {
		c.Tap(&packet.Packet{Flow: 1, Size: 100})
	})
	eng.Run(sim.At(10 * time.Second))
	if &f.bins[0] != base {
		t.Error("tap within horizon reallocated the bin slice")
	}
	// Past the horizon the capture keeps working.
	eng.Schedule(25*time.Second, func() {
		c.Tap(&packet.Packet{Flow: 1, Size: 100})
	})
	eng.Run(sim.At(40 * time.Second))
	if f.Packets != 2 {
		t.Errorf("packets = %d, want 2", f.Packets)
	}
	if got := f.bins[len(f.bins)-1].bytes; got != 100 {
		t.Errorf("last bin = %d, want 100", got)
	}
}

func TestGrowDoubling(t *testing.T) {
	s := grow(nil, 0)
	if len(s) != 1 {
		t.Fatalf("len = %d", len(s))
	}
	s[0].pkts = 7
	s = grow(s, 100)
	if len(s) != 101 || s[0].pkts != 7 {
		t.Fatalf("len = %d, s[0] = %d", len(s), s[0].pkts)
	}
	for _, v := range s[1:] {
		if v != (binCount{}) {
			t.Fatal("grown region not zeroed")
		}
	}
	// Growing within capacity must not reallocate.
	c := cap(s)
	s2 := grow(s, c-1)
	if cap(s2) != c {
		t.Errorf("within-cap grow reallocated: cap %d -> %d", c, cap(s2))
	}
}

// BenchmarkBinGrowth isolates the packet-path cost of extending the bin
// array across a 9-minute trace (1080 bins, one count per bin): "horizon"
// preallocates via SetHorizon and never reallocates; "fallback" relies on
// grow's doubling. The previous element-at-a-time append walked every
// missing bin on each advance; both variants here are amortised O(1), with
// horizon eliminating reallocation entirely.
func BenchmarkBinGrowth(b *testing.B) {
	for _, pre := range []int{0, 1081} {
		name := "fallback"
		if pre > 0 {
			name = "horizon"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var s []binCount
				if pre > 0 {
					s = make([]binCount, 0, pre)
				}
				for bin := 0; bin <= 1080; bin++ {
					s = grow(s, bin)
					s[bin].pkts++
				}
			}
		})
	}
}

// TestBinBlocksGrowWithFlows pins the bin arena's block sizes: blocks
// double from one flow up to flowTraceChunk flows, so a run tracing three
// flows holds three flows' bins, and every flow's carve stays its own
// (filling one flow's bins to capacity leaves its neighbours zero).
func TestBinBlocksGrowWithFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, 500*time.Millisecond)
	c.SetHorizon(10 * time.Second)
	wantBlock := []int{1, 2, 2, 4, 4, 4, 4}
	for i, want := range wantBlock {
		c.flow(packet.FlowID(i))
		if c.binBlock != want {
			t.Fatalf("flow %d: block of %d flows, want %d", i, c.binBlock, want)
		}
	}
	for i := len(wantBlock); i < 200; i++ {
		c.flow(packet.FlowID(i))
	}
	if c.binBlock != flowTraceChunk {
		t.Errorf("after 200 flows: block of %d flows, want %d", c.binBlock, flowTraceChunk)
	}
	for i := 0; i < 200; i += 2 {
		f := c.flow(packet.FlowID(i))
		f.bins = f.bins[:cap(f.bins)]
		for b := range f.bins {
			f.bins[b].pkts = 1
		}
	}
	for i := 1; i < 200; i += 2 {
		f := c.flow(packet.FlowID(i))
		if cap(f.bins) != c.binHint {
			t.Fatalf("flow %d: bins cap %d, want %d", i, cap(f.bins), c.binHint)
		}
		for _, b := range f.bins[:cap(f.bins)] {
			if b != (binCount{}) {
				t.Fatalf("flow %d: a neighbour's bins overlap its own", i)
			}
		}
	}
}
