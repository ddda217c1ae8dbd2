package figures

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/stats"
	"repro/internal/units"
)

// Options configures campaign size and fidelity.
type Options struct {
	// Iterations per condition (paper: 15).
	Iterations int
	// TimeScale compresses the 9-minute timeline; 0 or 1 is full length.
	TimeScale float64
	// Workers bounds run parallelism (<= 0 = one worker per CPU).
	Workers int
	// AQM overrides the bottleneck discipline (default drop-tail).
	AQM string
	// Progress, when non-nil, observes every sweep the campaign runs; pass
	// an obs.Aggregator to fold the runs into streaming metric sketches or
	// an obs.JSONL to log one record per run (several through
	// obs.MultiProgress).
	Progress obs.Progress
	// Probe, when non-nil, instruments every run of every sweep; ProbeDir,
	// when also non-empty, receives the per-run CSV/JSONL exports.
	Probe    *probe.Config
	ProbeDir string
	// Cache, when non-nil, is shared by every sweep the campaign runs:
	// runs whose results are already stored are served from disk, so a
	// repeated campaign is pure cache replay and an interrupted one
	// resumes where it stopped. See internal/runcache.
	Cache *runcache.Cache
}

func (o Options) defaults() Options {
	if o.Iterations == 0 {
		o.Iterations = experiment.PaperSweep().Iterations
	}
	if o.Workers <= 0 {
		o.Workers = experiment.DefaultWorkers()
	}
	return o
}

func (o Options) timeline() metrics.Timeline {
	tl := metrics.PaperTimeline
	if o.TimeScale > 0 && o.TimeScale != 1 {
		tl = tl.Scale(o.TimeScale)
	}
	return tl
}

// Campaign owns the sweeps behind the figures, so several tables can share
// one set of runs (the paper's tables all come from the same 810 traces).
type Campaign struct {
	Opts Options

	ctx         context.Context
	interrupted bool

	contended *experiment.SweepResult // cubic+bbr grid
	solo      *experiment.SweepResult // no competing flow grid
	baseline  *experiment.SweepResult // unconstrained, no competing flow
}

// NewCampaign prepares a campaign with the given options.
func NewCampaign(opts Options) *Campaign {
	return &Campaign{Opts: opts.defaults(), ctx: context.Background()}
}

// SetContext installs the context future sweeps run under. Cancelling it
// makes in-progress sweeps return partial results (flagged via
// Interrupted); tables rendered from partial sweeps mark missing cells
// with "-".
func (c *Campaign) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
}

// Interrupted reports whether any of the campaign's sweeps was cancelled
// before completing.
func (c *Campaign) Interrupted() bool { return c.interrupted }

// sweep applies the campaign-wide options and runs cfg.
func (c *Campaign) sweep(cfg experiment.SweepConfig) *experiment.SweepResult {
	cfg.Iterations = c.Opts.Iterations
	cfg.Workers = c.Opts.Workers
	cfg.Timeline = c.Opts.timeline()
	cfg.AQM = c.Opts.AQM
	cfg.Progress = c.Opts.Progress
	cfg.Probe = c.Opts.Probe
	cfg.ProbeDir = c.Opts.ProbeDir
	cfg.Cache = c.Opts.Cache
	sw := experiment.RunSweep(c.ctx, cfg)
	if sw.Interrupted {
		c.interrupted = true
	}
	return sw
}

// Contended runs (once) and returns the full competing-flow sweep.
func (c *Campaign) Contended() *experiment.SweepResult {
	if c.contended == nil {
		c.contended = c.sweep(experiment.PaperSweep())
	}
	return c.contended
}

// Solo runs (once) and returns the capacity-constrained solo sweep.
func (c *Campaign) Solo() *experiment.SweepResult {
	if c.solo == nil {
		cfg := experiment.PaperSweep()
		cfg.CCAs = []string{""}
		c.solo = c.sweep(cfg)
	}
	return c.solo
}

// Baseline runs (once) the unconstrained solo conditions behind Table 1.
func (c *Campaign) Baseline() *experiment.SweepResult {
	if c.baseline == nil {
		cfg := experiment.PaperSweep()
		cfg.CCAs = []string{""}
		cfg.Capacities = []units.Rate{units.Mbps(950)}
		cfg.QueueMults = []float64{2}
		c.baseline = c.sweep(cfg)
	}
	return c.baseline
}

// Table1 reproduces "Game system bitrates without capacity constraints or
// competing traffic".
func (c *Campaign) Table1() *report.Table {
	sweep := c.Baseline()
	tb := report.NewTable("Table 1: baseline bitrates (unconstrained, no competing flow)",
		"System", "Bitrate (Mb/s)", "Paper")
	paper := map[gamestream.System]string{
		gamestream.Stadia: "27.5 (2.3)", gamestream.GeForce: "24.5 (1.8)", gamestream.Luna: "23.7 (0.9)",
	}
	for _, sys := range gamestream.Systems {
		for _, cond := range sweep.Conditions {
			if cond.Cond.System != sys {
				continue
			}
			s := cond.GameRateBins(cond.ContentionWindow())
			tb.AddRow(string(sys), report.MeanStd(s.Mean, s.StdDev), paper[sys])
		}
	}
	return tb
}

// Figure2 reproduces the bitrate-versus-time panels at 25 Mb/s: for each
// system × CCA it returns a CSV with the across-run mean and 95% CI per
// queue size.
func (c *Campaign) Figure2() map[string]string {
	sweep := c.Contended()
	p := experiment.PaperSweep()
	out := make(map[string]string)
	for _, sys := range p.Systems {
		for _, cca := range p.CCAs {
			headers := []string{"t_sec"}
			var cols [][]float64
			var tcol []float64
			for _, qm := range p.QueueMults {
				cond := sweep.Find(c.cond(sys, cca, units.Mbps(25), qm))
				if cond == nil {
					continue
				}
				mean, ci := cond.MeanGameSeries()
				if tcol == nil {
					tcol = make([]float64, len(mean.V))
					for i := range tcol {
						tcol[i] = float64(i) * mean.Bin.Seconds()
					}
					cols = append(cols, tcol)
				}
				headers = append(headers,
					fmt.Sprintf("q%.1fx_mean_mbps", qm), fmt.Sprintf("q%.1fx_ci95", qm))
				cols = append(cols, mean.V, ci)
			}
			out[fmt.Sprintf("%s_vs_%s", sys, cca)] = report.CSV(headers, cols)
		}
	}
	return out
}

// Figure3 reproduces the fairness-ratio heatmaps: one per system per CCA,
// rows are capacities (highest first), columns queue sizes. A cell the
// sweep lacks (an interrupted campaign) is NaN, which renders as "-".
func (c *Campaign) Figure3() []*report.Heatmap {
	sweep := c.Contended()
	p := experiment.PaperSweep()
	var maps []*report.Heatmap
	for _, cca := range p.CCAs {
		for _, sys := range p.Systems {
			h := &report.Heatmap{
				Title: fmt.Sprintf("Figure 3: (game - tcp)/capacity, %s vs TCP %s", sys, cca),
			}
			for _, qm := range p.QueueMults {
				h.Cols = append(h.Cols, fmt.Sprintf("q %gx", qm))
			}
			for i := len(p.Capacities) - 1; i >= 0; i-- {
				capy := p.Capacities[i]
				h.Rows = append(h.Rows, fmt.Sprintf("%.0f Mb/s", capy.Mbit()))
				row := make([]float64, 0, len(p.QueueMults))
				for _, qm := range p.QueueMults {
					v := math.NaN()
					if cond := sweep.Find(c.cond(sys, cca, capy, qm)); cond != nil {
						v = cond.FairnessRatio()
					}
					row = append(row, v)
				}
				h.Cells = append(h.Cells, row)
			}
			maps = append(maps, h)
		}
	}
	return maps
}

// Figure4Point is one scatter point of adaptiveness versus fairness.
type Figure4Point struct {
	System       gamestream.System
	CCA          string
	Capacity     units.Rate
	QueueMult    float64
	Fairness     float64
	Adaptiveness float64
	Response     time.Duration
	Recovery     time.Duration
	// Responded and Recovered are false when the series never settled;
	// the time is then the window length, a lower bound.
	Responded, Recovered bool
}

// Figure4 reproduces the adaptiveness-versus-fairness scatter: one point
// per system × condition, response/recovery normalised by the maxima
// observed across the compared systems for each CCA.
func (c *Campaign) Figure4() []Figure4Point {
	sweep := c.Contended()
	var pts []Figure4Point
	for _, cca := range experiment.PaperSweep().CCAs {
		// First pass: gather response/recovery and the maxima.
		var raw []Figure4Point
		var cmax, emax time.Duration
		for _, cond := range sweep.Conditions {
			if cond.Cond.CCA != cca {
				continue
			}
			rr := cond.ResponseRecovery()
			p := Figure4Point{
				System:    cond.Cond.System,
				CCA:       cca,
				Capacity:  cond.Cond.Capacity,
				QueueMult: cond.Cond.QueueMult,
				Fairness:  cond.FairnessRatio(),
				Response:  rr.Response,
				Recovery:  rr.Recovery,
				Responded: rr.Responded,
				Recovered: rr.Recovered,
			}
			if rr.Response > cmax {
				cmax = rr.Response
			}
			if rr.Recovery > emax {
				emax = rr.Recovery
			}
			raw = append(raw, p)
		}
		for i := range raw {
			rr := metrics.ResponseRecovery{Response: raw[i].Response, Recovery: raw[i].Recovery}
			raw[i].Adaptiveness = metrics.Adaptiveness(rr, cmax, emax)
		}
		pts = append(pts, raw...)
	}
	return pts
}

// Figure4Table renders the scatter points as a table.
func (c *Campaign) Figure4Table() *report.Table {
	tb := report.NewTable("Figure 4: adaptiveness vs fairness",
		"System", "CCA", "Capacity", "Queue", "Fairness", "Adaptiveness", "Response", "Recovery")
	for _, p := range c.Figure4() {
		tb.AddRow(string(p.System), p.CCA,
			fmt.Sprintf("%.0f", p.Capacity.Mbit()),
			fmt.Sprintf("%.1fx", p.QueueMult),
			fmt.Sprintf("%+.2f", p.Fairness),
			fmt.Sprintf("%.2f", p.Adaptiveness),
			settleCell(p.Response, p.Responded, "s"),
			settleCell(p.Recovery, p.Recovered, "s"))
	}
	return tb
}

// settleCell renders a response or recovery time in whole seconds. A
// series that never settled prints its window length as a lower bound
// (">170"), so it cannot be read as a measured time.
func settleCell(d time.Duration, settled bool, unit string) string {
	bound := ""
	if !settled {
		bound = ">"
	}
	return fmt.Sprintf("%s%.0f%s", bound, d.Seconds(), unit)
}

// gridCol is one column group of a capacity × queue table: for every
// system, the cells of sweep run against cca, headed system+suffix.
type gridCol struct {
	sweep  *experiment.SweepResult
	cca    string
	suffix string
}

// vsCCAs returns one column group per competing CCA of the paper grid,
// all read from the contended sweep.
func vsCCAs(sweep *experiment.SweepResult) []gridCol {
	var cols []gridCol
	for _, cca := range experiment.PaperSweep().CCAs {
		cols = append(cols, gridCol{sweep, cca, "/" + cca})
	}
	return cols
}

// gridTable renders the paper grid's capacity × queue rows against one
// column per system per group. cell renders one condition; a condition its
// group's sweep lacks (an interrupted campaign) prints "-".
func (c *Campaign) gridTable(title string, cols []gridCol, cell func(*experiment.ConditionResult) string) *report.Table {
	p := experiment.PaperSweep()
	headers := []string{"Capacity", "Queue"}
	for _, sys := range p.Systems {
		for _, g := range cols {
			headers = append(headers, string(sys)+g.suffix)
		}
	}
	tb := report.NewTable(title, headers...)
	for _, capy := range p.Capacities {
		for _, qm := range p.QueueMults {
			row := []string{fmt.Sprintf("%.0f Mb/s", capy.Mbit()), fmt.Sprintf("%.1fx", qm)}
			for _, sys := range p.Systems {
				for _, g := range cols {
					if cond := g.sweep.Find(c.cond(sys, g.cca, capy, qm)); cond != nil {
						row = append(row, cell(cond))
					} else {
						row = append(row, "-")
					}
				}
			}
			tb.AddRow(row...)
		}
	}
	return tb
}

// cond names one grid condition under the campaign's queue discipline.
func (c *Campaign) cond(sys gamestream.System, cca string, capy units.Rate, qm float64) experiment.Condition {
	return experiment.Condition{System: sys, CCA: cca, Capacity: capy, QueueMult: qm, AQM: c.Opts.AQM}
}

// rttCell renders a condition's pooled RTT samples over its contention
// window.
func rttCell(cond *experiment.ConditionResult) string {
	s := cond.RTTStats(cond.ContentionWindow())
	return report.MeanStd(s.Mean, s.StdDev)
}

// Table3 reproduces "Round-trip time (ms) without a competing TCP flow".
func (c *Campaign) Table3() *report.Table {
	return c.gridTable("Table 3: RTT (ms) without a competing TCP flow",
		[]gridCol{{c.Solo(), "", ""}}, rttCell)
}

// Table4 reproduces "Round-trip time (ms) with a competing TCP flow".
func (c *Campaign) Table4() *report.Table {
	return c.gridTable("Table 4: RTT (ms) with a competing TCP flow",
		vsCCAs(c.Contended()), rttCell)
}

// Table5 reproduces "Frame rate (f/s) with competing TCP flow".
func (c *Campaign) Table5() *report.Table {
	return c.gridTable("Table 5: frame rate (f/s) with competing TCP flow",
		vsCCAs(c.Contended()), func(cond *experiment.ConditionResult) string {
			s := cond.FPSStats(cond.ContentionWindow())
			return report.MeanStd(s.Mean, s.StdDev)
		})
}

// LossTables reproduces the loss-rate analysis (§4.3 / tech report): game
// flow loss percentage per condition, solo and with each competing flow.
func (c *Campaign) LossTables() *report.Table {
	solo := c.Solo()
	cols := append([]gridCol{{solo, "", "/solo"}}, vsCCAs(c.Contended())...)
	return c.gridTable("Loss rate (%) of the game flow", cols, func(cond *experiment.ConditionResult) string {
		s := cond.LossStats(cond.ContentionWindow())
		return report.MeanStd2(s.Mean*100, s.StdDev*100)
	})
}

// Summary renders the adaptiveness/fairness per system ovals (the verbal
// summary of Figure 4), useful for quick eyeballing.
func (c *Campaign) Summary() string {
	pts := c.Figure4()
	var b strings.Builder
	for _, cca := range experiment.PaperSweep().CCAs {
		fmt.Fprintf(&b, "vs TCP %s:\n", cca)
		for _, sys := range gamestream.Systems {
			var fair, adapt stats.Accumulator
			for _, p := range pts {
				if p.System == sys && p.CCA == cca {
					fair.Add(p.Fairness)
					adapt.Add(p.Adaptiveness)
				}
			}
			fmt.Fprintf(&b, "  %-8s fairness %+.2f  adaptiveness %.2f\n",
				sys, fair.Mean(), adapt.Mean())
		}
	}
	return b.String()
}
