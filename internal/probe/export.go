package probe

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ts renders a sim timestamp as seconds with microsecond precision. Purely
// integer arithmetic so exports are byte-identical for identical runs
// regardless of platform float formatting.
func ts(at sim.Time) string {
	ns := int64(at)
	return fmt.Sprintf("%d.%06d", ns/int64(time.Second), (ns%int64(time.Second))/int64(time.Microsecond))
}

// usOrEmpty renders a duration in whole microseconds, or "" for unset
// optional columns.
func usOrEmpty(d time.Duration, ok bool) string {
	if !ok {
		return ""
	}
	return fmt.Sprintf("%d", d.Microseconds())
}

// Header lines of the three CSV exports. A reader recognises an export by
// its header, whatever the file is called.
const (
	CCHeader    = "flow,alg,t_s,cwnd_bytes,ssthresh_bytes,pacing_bps,inflight_bytes,srtt_us,rttvar_us,min_rtt_us,delivery_bps,delivered_bytes,in_recovery,mode,wmax_segs,k_s,btlbw_bps,rtprop_us,inflight_hi_bytes,base_rtt_us"
	QueueHeader = "queue,t_s,packets,bytes,sojourn_us,cum_drops"
	DropsHeader = "queue,t_s,flow,id,size"
)

// WriteCCCSV writes every flow's CC sample series as one flat CSV, flows in
// attach order. Controller-specific columns are left empty where they do not
// apply (e.g. btlbw for Cubic).
func (p *Probe) WriteCCCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, CCHeader)
	for _, f := range p.flows {
		for i := 0; i < f.Samples.Len(); i++ {
			s := f.Samples.At(i)
			rec := 0
			if s.InRecovery {
				rec = 1
			}
			wmax, k := "", ""
			if s.State.WMaxSegs != 0 {
				wmax = fmt.Sprintf("%.4f", s.State.WMaxSegs)
				k = fmt.Sprintf("%.6f", s.State.KSec)
			}
			btlbw, rtprop := "", ""
			if s.State.BtlBw != 0 || s.State.RTProp != 0 {
				btlbw = fmt.Sprintf("%d", int64(s.State.BtlBw))
				rtprop = fmt.Sprintf("%d", s.State.RTProp.Microseconds())
			}
			inflHi := ""
			if s.State.InflightHiBytes != 0 {
				inflHi = fmt.Sprintf("%d", s.State.InflightHiBytes)
			}
			baseRTT := ""
			if s.State.BaseRTT != 0 {
				baseRTT = fmt.Sprintf("%d", s.State.BaseRTT.Microseconds())
			}
			fmt.Fprintf(bw, "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%s\n",
				f.Name, f.Alg, ts(s.At),
				s.CwndBytes, s.SsthreshBytes, int64(s.PacingRate), s.InflightBytes,
				s.SRTT.Microseconds(), s.RTTVar.Microseconds(), s.MinRTT.Microseconds(),
				int64(s.DeliveryRate), s.DeliveredBytes, rec,
				s.State.Mode, wmax, k, btlbw, rtprop, inflHi, baseRTT)
		}
	}
	return bw.Flush()
}

// WriteQueueCSV writes every queue's occupancy/sojourn series. The sojourn
// column is empty when the queue was empty at the sample instant (or the
// queue type has no sojourn accounting).
func (p *Probe) WriteQueueCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, QueueHeader)
	for _, qp := range p.queues {
		for i := 0; i < qp.Samples.Len(); i++ {
			s := qp.Samples.At(i)
			fmt.Fprintf(bw, "%s,%s,%d,%d,%s,%d\n",
				qp.Name, ts(s.At), s.Packets, int64(s.Bytes),
				usOrEmpty(s.Sojourn, s.HasSojourn), s.CumDrops)
		}
	}
	return bw.Flush()
}

// WriteDropsCSV writes every queue's drop events with sim timestamps.
func (p *Probe) WriteDropsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, DropsHeader)
	for _, qp := range p.queues {
		for i := 0; i < qp.DropEvents.Len(); i++ {
			d := qp.DropEvents.At(i)
			fmt.Fprintf(bw, "%s,%s,%d,%d,%d\n", qp.Name, ts(d.At), d.Flow, d.ID, d.Size)
		}
	}
	return bw.Flush()
}

// WriteEventsJSONL writes the retained lifecycle events, one JSON object per
// line, oldest first. Returns nil without writing when the ring is disabled.
func (p *Probe) WriteEventsJSONL(w io.Writer) error {
	if p.events == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, ev := range p.events.Events() {
		fmt.Fprintf(bw, "{\"t_s\":%s,\"kind\":%q,\"flow\":%d,\"id\":%d,\"size\":%d}\n",
			ts(ev.At), ev.Kind.String(), ev.Flow, ev.ID, ev.Size)
	}
	return bw.Flush()
}

// Meta summarises the capture without export paths.
func (p *Probe) Meta() obs.ProbeMeta {
	m := obs.ProbeMeta{
		IntervalMS:   float64(p.cfg.tickInterval()) / float64(time.Millisecond),
		PerAck:       p.cfg.PerAck,
		CCSamples:    p.CCSampleCount(),
		QueueSamples: p.QueueSampleCount(),
	}
	if p.events != nil {
		m.Events = uint64(p.events.Len())
		m.EventsLost = p.events.Lost()
	}
	return m
}

// Export writes the captured series to dir as base.cc.csv, base.queue.csv,
// base.drops.csv and (when the ring is enabled) base.events.jsonl, creating
// dir if needed, and returns the filled metadata. File names land in the
// metadata relative to dir, matching how run logs reference artefacts.
func (p *Probe) Export(dir, base string) (obs.ProbeMeta, error) {
	m := p.Meta()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".cc.csv", p.WriteCCCSV); err != nil {
		return m, err
	}
	m.CCCSV = base + ".cc.csv"
	if err := write(base+".queue.csv", p.WriteQueueCSV); err != nil {
		return m, err
	}
	m.QueueCSV = base + ".queue.csv"
	if err := write(base+".drops.csv", p.WriteDropsCSV); err != nil {
		return m, err
	}
	m.DropsCSV = base + ".drops.csv"
	if p.events != nil {
		if err := write(base+".events.jsonl", p.WriteEventsJSONL); err != nil {
			return m, err
		}
		m.EventsJSONL = base + ".events.jsonl"
	}
	return m, nil
}
