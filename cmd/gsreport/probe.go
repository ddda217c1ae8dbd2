package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// readProbeCSV reads a probe export, prefixing any error with its path.
func readProbeCSV(path string) (*table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := readTable(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// sparkline renders vs as a fixed-width block-character strip, downsampling
// by bucket means — enough to see a Cubic sawtooth or a filling queue in a
// terminal without a plotting stack.
func sparkline(vs []float64, width int) string {
	if len(vs) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	if width > len(vs) {
		width = len(vs)
	}
	buckets := make([]float64, width)
	for b := range buckets {
		lo, hi := b*len(vs)/width, (b+1)*len(vs)/width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range vs[lo:hi] {
			sum += v
		}
		buckets[b] = sum / float64(hi-lo)
	}
	min, max := buckets[0], buckets[0]
	for _, v := range buckets {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for i, v := range buckets {
		k := 0
		if max > min {
			k = int((v - min) / (max - min) * float64(len(ramp)-1))
		}
		out[i] = ramp[k]
	}
	return string(out)
}

// reportCC summarises a probe cc.csv: per-flow cwnd-vs-time with sample
// counts, byte summaries and a sparkline, plus the RTT picture and the CC
// mode mix — the quick-look version of the paper's cwnd mechanism plots.
func reportCC(path string) error {
	p, err := readProbeCSV(path)
	if err != nil {
		return err
	}
	if _, ok := p.col["cwnd_bytes"]; !ok {
		return fmt.Errorf("%s: not a cc probe export (no cwnd_bytes column)", path)
	}
	type flowAgg struct {
		alg    string
		t      []float64
		cwnd   []float64
		infl   []float64
		srttMS []float64
		modes  map[string]int
	}
	cols, err := p.floats("t_s", "cwnd_bytes", "inflight_bytes", "srtt_us")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ts, cwnd, infl, srtt := cols[0], cols[1], cols[2], cols[3]
	flows := map[string]*flowAgg{}
	var order []string
	for r, row := range p.rows {
		name := p.field(row, "flow")
		fa := flows[name]
		if fa == nil {
			fa = &flowAgg{alg: p.field(row, "alg"), modes: map[string]int{}}
			flows[name] = fa
			order = append(order, name)
		}
		fa.t = append(fa.t, ts[r])
		fa.cwnd = append(fa.cwnd, cwnd[r])
		fa.infl = append(fa.infl, infl[r])
		if srtt[r] != 0 { // 0 is a sample taken before the first RTT estimate
			fa.srttMS = append(fa.srttMS, srtt[r]/1000)
		}
		if m := p.field(row, "mode"); m != "" {
			fa.modes[m]++
		}
	}
	fmt.Printf("cc probe: %s (%d samples, %d flows)\n", path, len(p.rows), len(flows))
	for _, name := range order {
		fa := flows[name]
		span := 0.0
		if n := len(fa.t); n > 0 {
			span = fa.t[n-1] - fa.t[0]
		}
		cw := stats.Summarize(fa.cwnd)
		in := stats.Summarize(fa.infl)
		rt := stats.Summarize(fa.srttMS)
		fmt.Printf("\nflow %s (%s): %d samples over %.1f s\n", name, fa.alg, len(fa.t), span)
		cq := stats.Percentiles(fa.cwnd, 0.50, 0.90)
		fmt.Printf("  cwnd:     mean %7.1f kB  p50 %7.1f kB  p90 %7.1f kB  max %7.1f kB\n",
			cw.Mean/1000, cq[0]/1000, cq[1]/1000, maxOf(fa.cwnd)/1000)
		fmt.Printf("  cwnd/t:   %s\n", sparkline(fa.cwnd, 60))
		fmt.Printf("  inflight: mean %7.1f kB  max %7.1f kB\n", in.Mean/1000, maxOf(fa.infl)/1000)
		if rt.N > 0 {
			fmt.Printf("  srtt:     mean %7.1f ms  sd %.1f ms\n", rt.Mean, rt.StdDev)
		}
		if len(fa.modes) > 0 {
			var ms []string
			for m := range fa.modes {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			parts := make([]string, len(ms))
			for i, m := range ms {
				parts[i] = fmt.Sprintf("%s %.0f%%", m, 100*float64(fa.modes[m])/float64(len(fa.t)))
			}
			fmt.Printf("  modes:    %s\n", strings.Join(parts, ", "))
		}
	}
	return nil
}

// reportQueue summarises a probe queue.csv: occupancy-vs-time per queue with
// a sparkline, sojourn statistics, and the drop total — the queue half of
// the paper's bufferbloat mechanism.
func reportQueue(path string) error {
	p, err := readProbeCSV(path)
	if err != nil {
		return err
	}
	if _, ok := p.col["sojourn_us"]; !ok {
		return fmt.Errorf("%s: not a queue probe export (no sojourn_us column)", path)
	}
	type qAgg struct {
		t, bytes, pkts []float64
		sojournMS      []float64
		drops          float64
	}
	cols, err := p.floats("t_s", "bytes", "packets", "sojourn_us", "cum_drops")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ts, bytes, pkts, sojourn, drops := cols[0], cols[1], cols[2], cols[3], cols[4]
	queues := map[string]*qAgg{}
	var order []string
	for r, row := range p.rows {
		name := p.field(row, "queue")
		qa := queues[name]
		if qa == nil {
			qa = &qAgg{}
			queues[name] = qa
			order = append(order, name)
		}
		qa.t = append(qa.t, ts[r])
		qa.bytes = append(qa.bytes, bytes[r])
		qa.pkts = append(qa.pkts, pkts[r])
		if p.field(row, "sojourn_us") != "" {
			qa.sojournMS = append(qa.sojournMS, sojourn[r]/1000)
		}
		qa.drops = drops[r] // cumulative; last row wins
	}
	fmt.Printf("queue probe: %s (%d samples, %d queues)\n", path, len(p.rows), len(queues))
	for _, name := range order {
		qa := queues[name]
		span := 0.0
		if n := len(qa.t); n > 0 {
			span = qa.t[n-1] - qa.t[0]
		}
		by := stats.Summarize(qa.bytes)
		fmt.Printf("\nqueue %s: %d samples over %.1f s\n", name, len(qa.t), span)
		fmt.Printf("  depth:    mean %7.1f kB  max %7.1f kB  (mean %.1f pkts)\n",
			by.Mean/1000, maxOf(qa.bytes)/1000, stats.Mean(qa.pkts))
		fmt.Printf("  depth/t:  %s\n", sparkline(qa.bytes, 60))
		if len(qa.sojournMS) > 0 {
			so := stats.Summarize(qa.sojournMS)
			fmt.Printf("  sojourn:  mean %7.1f ms  max %7.1f ms  (%d non-empty samples)\n",
				so.Mean, maxOf(qa.sojournMS), len(qa.sojournMS))
		}
		fmt.Printf("  drops:    %.0f\n", qa.drops)
	}
	return nil
}

// dropsGap separates two loss episodes in reportDrops.
const dropsGap = 100 * time.Millisecond

// reportDrops summarises a probe drops.csv as loss episodes: consecutive
// drops on the same queue closer than dropsGap are one episode (a GE
// bad-state burst or a link-flap window), reported with their span, drop
// count, and bytes lost. Singleton episodes are summarised in aggregate so
// Bernoulli noise does not swamp the genuine bursts.
func reportDrops(path string) error {
	p, err := readProbeCSV(path)
	if err != nil {
		return err
	}
	if _, ok := p.col["queue"]; !ok {
		return fmt.Errorf("%s: not a drops probe export (no queue column)", path)
	}
	type episode struct {
		from, to     float64
		drops, bytes int
	}
	type qAgg struct {
		episodes []episode
		drops    int
		bytes    int
	}
	cols, err := p.floats("t_s", "size")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ts, sizes := cols[0], cols[1]
	queues := map[string]*qAgg{}
	var order []string
	gapS := dropsGap.Seconds()
	for r, row := range p.rows {
		name := p.field(row, "queue")
		qa := queues[name]
		if qa == nil {
			qa = &qAgg{}
			queues[name] = qa
			order = append(order, name)
		}
		t, size := ts[r], int(sizes[r])
		qa.drops++
		qa.bytes += size
		if n := len(qa.episodes); n > 0 && t-qa.episodes[n-1].to <= gapS {
			ep := &qa.episodes[n-1]
			ep.to = t
			ep.drops++
			ep.bytes += size
		} else {
			qa.episodes = append(qa.episodes, episode{from: t, to: t, drops: 1, bytes: size})
		}
	}
	fmt.Printf("drops probe: %s (%d drops, %d queues, episode gap %v)\n", path, len(p.rows), len(queues), dropsGap)
	for _, name := range order {
		qa := queues[name]
		singles, singleDrops := 0, 0
		var bursts []episode
		for _, ep := range qa.episodes {
			if ep.drops == 1 {
				singles++
				singleDrops += ep.drops
			} else {
				bursts = append(bursts, ep)
			}
		}
		fmt.Printf("\nqueue %s: %d drops (%.1f kB) in %d episodes\n",
			name, qa.drops, float64(qa.bytes)/1000, len(qa.episodes))
		for _, ep := range bursts {
			fmt.Printf("  burst %8.3fs - %8.3fs: %4d drops, %7.1f kB\n",
				ep.from, ep.to, ep.drops, float64(ep.bytes)/1000)
		}
		if singles > 0 {
			fmt.Printf("  plus %d isolated single drops\n", singles)
		}
	}
	return nil
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
