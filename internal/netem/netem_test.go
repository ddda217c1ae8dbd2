package netem

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

type collector struct {
	pkts  []*packet.Packet
	times []sim.Time
	eng   *sim.Engine
}

func (c *collector) Handle(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.eng.Now())
}

func mkpkt(size int, flow packet.FlowID) *packet.Packet {
	return &packet.Packet{Size: size, Flow: flow, Kind: packet.KindData}
}

func TestLinkSerialisationTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	// 12 Mb/s: 1500 B takes exactly 1 ms; 5 ms propagation.
	link := NewLink(eng, units.Mbps(12), 5*time.Millisecond, sink)
	link.Handle(mkpkt(1500, 1))
	link.Handle(mkpkt(1500, 1))
	eng.Run(sim.End)
	if len(sink.times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(sink.times))
	}
	if sink.times[0] != sim.At(6*time.Millisecond) {
		t.Errorf("first delivery at %v, want 6ms", sink.times[0])
	}
	// Second packet waits for the first to serialise: 2 ms + 5 ms.
	if sink.times[1] != sim.At(7*time.Millisecond) {
		t.Errorf("second delivery at %v, want 7ms", sink.times[1])
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	link := NewLink(eng, 0, time.Millisecond, sink)
	link.Handle(mkpkt(1500, 1))
	eng.Run(sim.End)
	if sink.times[0] != sim.At(time.Millisecond) {
		t.Errorf("delivery at %v, want 1ms (propagation only)", sink.times[0])
	}
}

func TestLinkPreservesOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	link := NewLink(eng, units.Mbps(10), time.Millisecond, sink)
	for i := 0; i < 50; i++ {
		p := mkpkt(100+i*17%1400, 1)
		p.Seq = int64(i)
		link.Handle(p)
	}
	eng.Run(sim.End)
	for i, p := range sink.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d: reordering", i, p.Seq)
		}
	}
}

func TestDelayElement(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	d := NewDelay(eng, 4*time.Millisecond, sink)
	eng.Schedule(time.Millisecond, func() { d.Handle(mkpkt(100, 1)) })
	eng.Run(sim.End)
	if sink.times[0] != sim.At(5*time.Millisecond) {
		t.Errorf("delivery at %v, want 5ms", sink.times[0])
	}
}

func TestDropTailLimit(t *testing.T) {
	q := NewDropTail(3000)
	ok1 := q.Enqueue(mkpkt(1500, 1), 0)
	ok2 := q.Enqueue(mkpkt(1500, 1), 0)
	ok3 := q.Enqueue(mkpkt(1500, 1), 0)
	if !ok1 || !ok2 {
		t.Error("packets within limit were dropped")
	}
	if ok3 {
		t.Error("packet exceeding limit was queued")
	}
	if q.Drops != 1 {
		t.Errorf("Drops = %d, want 1", q.Drops)
	}
	if q.Bytes() != 3000 {
		t.Errorf("Bytes = %d, want 3000", q.Bytes())
	}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(0)
	for i := 0; i < 200; i++ {
		p := mkpkt(100, 1)
		p.Seq = int64(i)
		q.Enqueue(p, 0)
	}
	for i := 0; i < 200; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d: got %v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Error("dequeue from empty queue returned a packet")
	}
}

func TestDropTailDropCallback(t *testing.T) {
	q := NewDropTail(1000)
	var dropped []*packet.Packet
	q.SetDropCallback(func(p *packet.Packet) { dropped = append(dropped, p) })
	q.Enqueue(mkpkt(800, 1), 0)
	q.Enqueue(mkpkt(800, 2), 0)
	if len(dropped) != 1 || dropped[0].Flow != 2 {
		t.Errorf("drop callback got %v", dropped)
	}
}

// Property: drop-tail conserves packets — everything enqueued is either
// delivered by Dequeue or counted as a drop, and occupancy never exceeds the
// limit.
func TestDropTailConservation(t *testing.T) {
	f := func(sizes []uint16, limitKB uint8) bool {
		limit := units.ByteSize(int64(limitKB)+1) * 1000
		q := NewDropTail(limit)
		queued := 0
		for _, s := range sizes {
			size := int(s%1400) + 100
			if q.Bytes() > limit {
				return false
			}
			if q.Enqueue(mkpkt(size, 1), 0) {
				queued++
			}
		}
		got := 0
		for q.Dequeue(0) != nil {
			got++
		}
		return got == queued && queued+q.Drops == len(sizes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShaperRateConservation(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	rate := units.Mbps(15)
	sh := NewShaper(eng, rate, 125000, NewDropTail(510000/8), sink)
	// Offer 30 Mb/s for 10 s: 1500 B every 0.4 ms.
	var tick *sim.Ticker
	n := 0
	tick = sim.NewTicker(eng, 400*time.Microsecond, func() {
		sh.Handle(mkpkt(1500, 1))
		n++
		if n >= 25000 {
			tick.Stop()
		}
	})
	tick.Start(true)
	eng.Run(sim.At(10 * time.Second))
	var bytes units.ByteSize
	for _, p := range sink.pkts {
		bytes += units.ByteSize(p.Size)
	}
	gotRate := units.RateFromBytes(bytes, 10*time.Second)
	// Output must be within burst tolerance of the shaping rate and never
	// meaningfully above it.
	if gotRate.Mbit() > 15.2 {
		t.Errorf("shaper emitted %.2f Mb/s, above 15 Mb/s rate", gotRate.Mbit())
	}
	if gotRate.Mbit() < 14.5 {
		t.Errorf("shaper emitted only %.2f Mb/s with saturating input", gotRate.Mbit())
	}
	if sh.Queue().(*DropTail).Drops == 0 {
		t.Error("expected drops at 2x overload with finite queue")
	}
}

func TestShaperBurstPasses(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	sh := NewShaper(eng, units.Mbps(1), 10*1500, NewDropTail(0), sink)
	// With a full bucket, a burst up to the bucket size passes immediately.
	for i := 0; i < 10; i++ {
		sh.Handle(mkpkt(1500, 1))
	}
	eng.Run(sim.Start)
	if len(sink.pkts) != 10 {
		t.Errorf("burst delivered %d packets immediately, want 10", len(sink.pkts))
	}
}

func TestShaperQueueDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	// Rate 12.112 Mb/s (1514 B = 1 ms), burst exactly one MTU packet.
	sh := NewShaper(eng, units.Rate(1514*8*1000), 1514, NewDropTail(0), sink)
	for i := 0; i < 5; i++ {
		sh.Handle(mkpkt(1514, 1))
	}
	eng.Run(sim.End)
	if len(sink.times) != 5 {
		t.Fatalf("delivered %d, want 5", len(sink.times))
	}
	// First passes at t=0 on the full bucket; each subsequent waits 1 ms
	// for tokens.
	for i := 1; i < 5; i++ {
		want := sim.At(time.Duration(i) * time.Millisecond)
		diff := sink.times[i].Sub(want)
		if diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("packet %d at %v, want ~%v", i, sink.times[i], want)
		}
	}
}

func TestShaperConservation(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	q := NewDropTail(20000)
	sh := NewShaper(eng, units.Mbps(5), 3000, q, sink)
	sent := 0
	var tick *sim.Ticker
	tick = sim.NewTicker(eng, 100*time.Microsecond, func() {
		sh.Handle(mkpkt(1200, 1))
		sent++
		if sent >= 5000 {
			tick.Stop()
		}
	})
	tick.Start(true)
	eng.Run(sim.End)
	if len(sink.pkts)+q.Drops != sent {
		t.Errorf("conservation violated: %d delivered + %d dropped != %d sent",
			len(sink.pkts), q.Drops, sent)
	}
}

func TestRouterRoutesByDestination(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &collector{eng: eng}
	b := &collector{eng: eng}
	r := NewRouter()
	r.Route(1, a)
	r.Route(2, b)
	p1 := mkpkt(100, 1)
	p1.Dst = 1
	p2 := mkpkt(100, 2)
	p2.Dst = 2
	r.Handle(p1)
	r.Handle(p2)
	if len(a.pkts) != 1 || len(b.pkts) != 1 {
		t.Errorf("routing failed: a=%d b=%d", len(a.pkts), len(b.pkts))
	}
}

func TestRouterTap(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	r := NewRouter()
	r.Route(1, sink)
	p := mkpkt(100, 1)
	p.Dst = 1
	r.Handle(p) // no tap set: forwards without one
	seen := 0
	r.Tap = func(p *packet.Packet) { seen++ }
	p = mkpkt(100, 1)
	p.Dst = 99
	r.Handle(p) // the tap sees unrouted packets too
	p = mkpkt(100, 1)
	p.Dst = 1
	r.Handle(p)
	if seen != 2 || len(sink.pkts) != 2 || r.Stats.Drops != 1 {
		t.Errorf("tap saw %d packets, sink got %d, %d drops; want 2, 2, 1", seen, len(sink.pkts), r.Stats.Drops)
	}
}

func TestRouterUnroutedDrops(t *testing.T) {
	r := NewRouter()
	p := mkpkt(100, 1)
	p.Dst = 99
	r.Handle(p)
	if r.Stats.Drops != 1 {
		t.Errorf("unrouted packet not counted as drop")
	}
}

func TestHostBindAndSend(t *testing.T) {
	eng := sim.NewEngine(1)
	var ids uint64
	sink := &collector{eng: eng}
	h := NewHost(eng, 7, sink, &ids)
	got := 0
	h.Bind(3, packet.HandlerFunc(func(p *packet.Packet) { got++ }))

	h.Send(mkpkt(100, 3))
	if len(sink.pkts) != 1 {
		t.Fatal("send did not reach first hop")
	}
	sent := sink.pkts[0]
	if sent.Src != 7 || sent.ID != 1 {
		t.Errorf("sent packet not stamped: src=%v id=%d", sent.Src, sent.ID)
	}
	h.Handle(mkpkt(100, 3))
	h.Handle(mkpkt(100, 9)) // unbound flow: discarded
	if got != 1 {
		t.Errorf("dispatch: bound handler saw %d packets, want 1", got)
	}
}

func TestCoDelDropsOnPersistentQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCoDel(0)
	// Enqueue a standing queue, then dequeue slowly so sojourn times stay
	// far above target for longer than interval.
	for i := 0; i < 500; i++ {
		c.Enqueue(mkpkt(1500, 1), eng.Now())
	}
	deliveries := 0
	for tms := 20; tms <= 2000; tms += 20 {
		now := sim.At(time.Duration(tms) * time.Millisecond)
		// Refill queue to keep it standing.
		if p := c.Dequeue(now); p != nil {
			deliveries++
		}
		c.Enqueue(mkpkt(1500, 1), now)
	}
	if c.Drops == 0 {
		t.Error("CoDel never dropped despite a standing queue far above target")
	}
	if deliveries == 0 {
		t.Error("CoDel delivered nothing")
	}
}

func TestCoDelNoDropsWhenIdle(t *testing.T) {
	c := NewCoDel(0)
	// Sojourn below target: enqueue and immediately dequeue.
	for i := 0; i < 1000; i++ {
		now := sim.At(time.Duration(i) * time.Millisecond)
		c.Enqueue(mkpkt(1500, 1), now)
		if p := c.Dequeue(now.Add(time.Millisecond)); p == nil {
			t.Fatal("lost a packet")
		}
	}
	if c.Drops != 0 {
		t.Errorf("CoDel dropped %d packets with sub-target sojourn", c.Drops)
	}
}

func TestFQCoDelIsolatesFlows(t *testing.T) {
	// A heavy flow (1) and a light flow (2) share the queue; DRR must
	// deliver flow 2's packets without making them wait behind the bulk
	// backlog.
	f := NewFQCoDel(0)
	for i := 0; i < 100; i++ {
		f.Enqueue(mkpkt(1500, 1), 0)
	}
	f.Enqueue(mkpkt(200, 2), 0)
	// Within the first few dequeues we must see flow 2.
	sawLight := false
	for i := 0; i < 5; i++ {
		p := f.Dequeue(0)
		if p == nil {
			break
		}
		if p.Flow == 2 {
			sawLight = true
			break
		}
	}
	if !sawLight {
		t.Error("light flow starved behind bulk flow in FQ-CoDel")
	}
}

func TestFQCoDelConservation(t *testing.T) {
	f := NewFQCoDel(50000)
	enq := 0
	for i := 0; i < 200; i++ {
		flow := packet.FlowID(i % 3)
		if f.Enqueue(mkpkt(1000, flow), 0) {
			enq++
		}
	}
	deq := 0
	for f.Dequeue(0) != nil {
		deq++
	}
	if deq != enq {
		t.Errorf("dequeued %d != enqueued %d", deq, enq)
	}
	if enq+f.Drops != 200 {
		t.Errorf("conservation: %d + %d != 200", enq, f.Drops)
	}
	if f.Bytes() != 0 {
		t.Errorf("residual bytes %d after draining", f.Bytes())
	}
}

func TestFQCoDelRoundRobinFair(t *testing.T) {
	f := NewFQCoDel(0)
	for i := 0; i < 60; i++ {
		f.Enqueue(mkpkt(1500, packet.FlowID(i%2)), 0)
	}
	counts := map[packet.FlowID]int{}
	for i := 0; i < 20; i++ {
		p := f.Dequeue(0)
		if p == nil {
			break
		}
		counts[p.Flow]++
	}
	if counts[0] < 8 || counts[1] < 8 {
		t.Errorf("DRR unfair over equal backlogs: %v", counts)
	}
}

func TestShaperBurstClampedToMTU(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &collector{eng: eng}
	sh := NewShaper(eng, units.Mbps(1), 10, NewDropTail(0), sink)
	sh.Handle(mkpkt(1514, 1))
	eng.Run(sim.End)
	if len(sink.pkts) != 1 {
		t.Error("full-size packet never passed a tiny-burst shaper")
	}
}
