package tcp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// fullScanLost is loss detection without markLost's early exit: both
// rules applied to every outstanding segment of the scoreboard.
func fullScanLost(s *Sender, reoWnd time.Duration) bool {
	lossDetected := false
	for _, sg := range s.segs {
		if sg.sacked || sg.lost {
			continue
		}
		sackLost := !sg.retx && sg.seq+dupThresh*s.mss <= s.highSacked
		rackLost := s.rackTime > 0 && sg.sentAt.Add(reoWnd) < s.rackTime
		if sackLost || rackLost {
			sg.lost = true
			s.pipeBytes -= sg.len
			s.retxPending++
			lossDetected = true
		}
	}
	return lossDetected
}

// boardCopy is a detached Sender holding a deep copy of s's scoreboard
// and the loss-detection state, with the SACK frontier and RACK time
// replaced.
func boardCopy(s *Sender, highSacked int64, rackTime sim.Time) *Sender {
	c := &Sender{
		mss: s.mss, highSacked: highSacked, rackTime: rackTime,
		pipeBytes: s.pipeBytes, retxPending: s.retxPending,
	}
	for _, sg := range s.segs {
		cp := *sg
		c.segs = append(c.segs, &cp)
	}
	return c
}

// TestMarkLostMatchesFullScan is the differential check of markLost's
// early exit and the SACK scan's binary-searched start. Senders run over
// random-loss paths heavy enough to drive RTOs; every millisecond their
// live scoreboard — sacked, lost, retransmitted and RTO-reset segments
// among it — is copied, and markLost and the full scan must mark exactly
// the same segments. Each copy is tried with the sender's own SACK
// frontier, RACK time and reordering window, and with random ones, since
// the early exit must be exact whatever their values.
func TestMarkLostMatchesFullScan(t *testing.T) {
	var checks, sacked, lost, retx, rtos int
	for seed := uint64(1); seed <= 6; seed++ {
		drop := []float64{0.03, 0.12, 0.3}[seed%3]
		alg := []string{AlgCubic, AlgBBR}[seed%2]
		eng, s, _, _ := lossyNet(seed, drop, alg)
		rng := rand.New(rand.NewSource(int64(seed)))
		check := func() {
			if len(s.segs) == 0 {
				return
			}
			for _, sg := range s.segs {
				switch {
				case sg.sacked:
					sacked++
				case sg.lost:
					lost++
				case sg.retx:
					retx++
				}
			}
			// The SACK binary search starts every block at the first
			// segment at or past its left edge.
			for _, sg := range s.segs {
				want := 0
				for want < len(s.segs) && s.segs[want].seq < sg.seq {
					want++
				}
				if got := s.segFrom(sg.seq); got != want {
					t.Fatalf("segFrom(%d) = %d, want %d", sg.seq, got, want)
				}
			}
			span := s.sndNxt - s.sndUna + 4*s.mss
			for k := 0; k < 4; k++ {
				highSacked, rackTime := s.highSacked, s.rackTime
				reoWnd := max(s.srtt/4, time.Millisecond)
				if k > 0 {
					highSacked = s.sndUna + rng.Int63n(span)
					rackTime = sim.Time(rng.Int63n(int64(eng.Now()) + 1))
					reoWnd = time.Duration(rng.Int63n(int64(40 * time.Millisecond)))
				}
				got, want := boardCopy(s, highSacked, rackTime), boardCopy(s, highSacked, rackTime)
				gotLoss, wantLoss := got.markLost(reoWnd), fullScanLost(want, reoWnd)
				checks++
				if gotLoss != wantLoss || got.pipeBytes != want.pipeBytes || got.retxPending != want.retxPending {
					t.Fatalf("seed %d at %v: markLost = (%v, pipe %d, retx %d), full scan = (%v, pipe %d, retx %d)",
						seed, eng.Now(), gotLoss, got.pipeBytes, got.retxPending,
						wantLoss, want.pipeBytes, want.retxPending)
				}
				for i := range got.segs {
					if got.segs[i].lost != want.segs[i].lost {
						t.Fatalf("seed %d at %v: segment %d (seq %d) lost=%v, full scan %v",
							seed, eng.Now(), i, got.segs[i].seq, got.segs[i].lost, want.segs[i].lost)
					}
				}
			}
		}
		tick := sim.NewTicker(eng, time.Millisecond, check)
		tick.Start(false)
		s.Start()
		eng.Run(sim.At(3 * time.Second))
		rtos += s.Stats.RTOs
	}
	t.Logf("%d checks over %d sacked, %d lost, %d retransmitted segment states; %d RTOs",
		checks, sacked, lost, retx, rtos)
	if sacked == 0 || lost == 0 || retx == 0 || rtos == 0 {
		t.Fatalf("scoreboards too tame: %d sacked, %d lost, %d retransmitted, %d RTOs",
			sacked, lost, retx, rtos)
	}
}
