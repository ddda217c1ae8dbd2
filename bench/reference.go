package main

import "time"

// Benchmark machines are often shared: other tenants contend for the same
// cores, caches and memory. On the 2-vCPU machine of the baselines in
// README.md, the same full-fidelity run took 0.45 s one minute and 0.9 s a
// minute later, and the plain median wall time of a 15 s run of the run
// workloads spread by 10–26% (quartile spread over median) from one run to
// the next, wider than any bound worth gating on. Timing each input by its
// fastest repeat barely helped, because a slowdown often lasts longer than
// a run. So the time metrics are reported at a fixed reference speed.
// The benchmark times a reference kernel right before each operation (and
// between the shards of a long campaign) and scales the operation's wall
// time by refNominalMS over the kernel's time next to it. The kernel uses
// nothing from the repository, so a change to the simulator does not change
// the kernel's work. It is a small discrete-event loop — a binary heap of
// 300 pending events, each touching a random record of a 4 MiB state array
// — because contention slows the simulator through the same things: the
// event heap, and loads that miss the caches. The raw wall times are
// printed beside the scaled ones in the detail lines.

// refNominalMS defines the reference speed: a time of x ref_ms is the time
// the operation would take, in milliseconds, on a machine running the
// kernel in refNominalMS milliseconds. It is the kernel's median on the
// machine the baselines in README.md were taken on when that machine was
// quiet.
const refNominalMS = 23.0

// refGap is the least time between two kernel samples inside one
// operation: a campaign samples between its shards only when its shards are
// long enough to be worth it.
const refGap = 100 * time.Millisecond

// refEvents is how many events one kernel sample dispatches.
const refEvents = 250_000

type refEvent struct {
	at  int64
	idx int32
}

// refRecord is one 64-byte record of the kernel's state.
type refRecord struct {
	a, b, c int64
	_       [40]byte
}

// refKernel is the reference kernel with its state. Each workload makes
// its own; it is used from one goroutine.
type refKernel struct {
	state []refRecord
	heap  []refEvent
}

// run runs the kernel once and returns its time in ms.
func (k *refKernel) run() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252) // xorshift64: the same event sequence every time
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := k.heap[:0]
	push := func(e refEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() refEvent {
		top, n := h[0], len(h)-1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && h[r].at < h[m].at {
				m = r
			}
			if h[i].at <= h[m].at {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < 300; i++ {
		push(refEvent{at: int64(rnd() % 1000), idx: int32(rnd() % uint64(len(k.state)))})
	}
	for n := 0; n < refEvents; n++ {
		e := pop()
		r := &k.state[e.idx]
		r.a += e.at
		r.b ^= r.a
		r.c++
		push(refEvent{at: e.at + 1 + int64(rnd()%1000), idx: int32(rnd() % uint64(len(k.state)))})
	}
	return ms(time.Since(t0).Nanoseconds())
}

// refMeter pairs each timed operation with the kernel samples taken next to
// it. Samples are taken only at safe points: right before an operation, and
// between the shards of a campaign through its progress log.
type refMeter struct {
	k      *refKernel
	last   time.Time
	paused time.Duration // the kernel's own time, which callers subtract from what they were timing
	op     []float64     // samples of the current operation: the one right before it, and those during it
	all    []float64
}

func newRefMeter() *refMeter {
	return &refMeter{k: &refKernel{state: make([]refRecord, 64<<10), heap: make([]refEvent, 0, 512)}} // 4 MiB of state
}

// sample runs the kernel once.
func (m *refMeter) sample() {
	t0 := time.Now()
	if len(m.all) == 0 {
		m.k.run() // maps the state's pages before the first sample
	}
	x := m.k.run()
	m.last = time.Now()
	m.paused += m.last.Sub(t0)
	m.all = append(m.all, x)
	m.op = append(m.op, x)
}

// Write lets a campaign's progress log sample the kernel between shards: a
// worker logs a line as each shard starts.
func (m *refMeter) Write(p []byte) (int, error) {
	if time.Since(m.last) >= refGap {
		m.sample()
	}
	return len(p), nil
}

// begin starts an operation with a fresh sample.
func (m *refMeter) begin() {
	m.op = m.op[:0]
	m.sample()
}

// scale is the factor that converts the current operation's wall time to
// reference speed.
func (m *refMeter) scale() float64 { return refNominalMS / median(m.op) }
