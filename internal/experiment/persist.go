package experiment

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"os"
	"time"

	"repro/internal/netem"
	"repro/internal/ping"
	"repro/internal/sim"
)

// persisted strips non-encodable fields (the Profile override and packet
// observer are functions/pointers that cannot and should not round-trip).
type persistedRun struct {
	Cfg              RunConfig
	Bin              int64
	GameMbps         []float64
	TCPMbps          []float64
	FPSBins          []float64
	RTT              []persistedSample
	GameLossBins     []float64
	TCPLossBins      []float64
	CompetitorTraces []CompetitorTrace
	FramesSent       int64
	FramesDisplayed  int64
	FramesDropped    int64
	NackRetx         int64
	TCPRetransmits   int
	Engine           sim.Stats
	Impair           netem.ImpairStats
	Flows            []FlowStats
	FlowSummary      FlowSummary
}

type persistedSample struct {
	At  int64
	RTT int64
}

func init() {
	gob.Register(persistedRun{})
}

// SaveSweep writes the sweep to path as gzipped gob, each run as a
// persistedRun. The run cache has its own binary entry layout (encodeRun).
func SaveSweep(path string, s *SweepResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: save sweep: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	gz := gzip.NewWriter(bw)
	enc := gob.NewEncoder(gz)

	type header struct {
		Cfg        SweepConfig
		Conditions int
	}
	// The observability sinks and the run cache are live objects, not
	// data; strip them so the header stays encodable and self-contained.
	cfg := s.Cfg
	cfg.Progress = nil
	cfg.Cache = nil
	if err := enc.Encode(header{Cfg: cfg, Conditions: len(s.Conditions)}); err != nil {
		return fmt.Errorf("experiment: save sweep header: %w", err)
	}
	for _, cond := range s.Conditions {
		if err := enc.Encode(cond.Cond); err != nil {
			return fmt.Errorf("experiment: save condition: %w", err)
		}
		if err := enc.Encode(len(cond.Runs)); err != nil {
			return err
		}
		for _, r := range cond.Runs {
			if err := enc.Encode(toPersisted(r)); err != nil {
				return fmt.Errorf("experiment: save run: %w", err)
			}
		}
	}
	if err := gz.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSweep reads a sweep previously written by SaveSweep.
func LoadSweep(path string) (*SweepResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: load sweep: %w", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("experiment: load sweep: %w", err)
	}
	dec := gob.NewDecoder(gz)

	type header struct {
		Cfg        SweepConfig
		Conditions int
	}
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("experiment: load sweep header: %w", err)
	}
	out := &SweepResult{Cfg: h.Cfg}
	for i := 0; i < h.Conditions; i++ {
		var cond Condition
		if err := dec.Decode(&cond); err != nil {
			return nil, fmt.Errorf("experiment: load condition: %w", err)
		}
		var n int
		if err := dec.Decode(&n); err != nil {
			return nil, err
		}
		cr := &ConditionResult{Cond: cond}
		for j := 0; j < n; j++ {
			var p persistedRun
			if err := dec.Decode(&p); err != nil {
				return nil, fmt.Errorf("experiment: load run: %w", err)
			}
			cr.Runs = append(cr.Runs, fromPersisted(&p))
		}
		out.Conditions = append(out.Conditions, cr)
	}
	return out, nil
}

func toPersisted(r *RunResult) persistedRun {
	cfg := r.Cfg
	cfg.Profile = nil
	p := persistedRun{
		Cfg:              cfg,
		Bin:              int64(r.Bin),
		GameMbps:         r.GameMbps,
		TCPMbps:          r.TCPMbps,
		FPSBins:          r.FPSBins,
		GameLossBins:     r.GameLossBins,
		TCPLossBins:      r.TCPLossBins,
		CompetitorTraces: r.CompetitorTraces,
		FramesSent:       r.FramesSent,
		FramesDisplayed:  r.FramesDisplayed,
		FramesDropped:    r.FramesDropped,
		NackRetx:         r.NackRetx,
		TCPRetransmits:   r.TCPRetransmits,
		Engine:           r.Engine,
		Impair:           r.Impair,
		Flows:            r.Flows,
		FlowSummary:      r.FlowSummary,
	}
	for _, s := range r.RTT {
		p.RTT = append(p.RTT, persistedSample{At: int64(s.At), RTT: int64(s.RTT)})
	}
	return p
}

func fromPersisted(p *persistedRun) *RunResult {
	r := &RunResult{
		Cfg:              p.Cfg,
		Bin:              timeDuration(p.Bin),
		GameMbps:         p.GameMbps,
		TCPMbps:          p.TCPMbps,
		FPSBins:          p.FPSBins,
		GameLossBins:     p.GameLossBins,
		TCPLossBins:      p.TCPLossBins,
		CompetitorTraces: p.CompetitorTraces,
		FramesSent:       p.FramesSent,
		FramesDisplayed:  p.FramesDisplayed,
		FramesDropped:    p.FramesDropped,
		NackRetx:         p.NackRetx,
		TCPRetransmits:   p.TCPRetransmits,
		Engine:           p.Engine,
		Impair:           p.Impair,
		Flows:            p.Flows,
		FlowSummary:      p.FlowSummary,
	}
	for _, s := range p.RTT {
		r.RTT = append(r.RTT, pingSample(s.At, s.RTT))
	}
	return r
}

// timeDuration converts stored nanoseconds back to a duration.
func timeDuration(n int64) time.Duration { return time.Duration(n) }

// pingSample rebuilds a ping.Sample from stored nanoseconds.
func pingSample(at, rtt int64) ping.Sample {
	return ping.Sample{At: sim.Time(at), RTT: time.Duration(rtt)}
}
