package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Parent is the id of the span that caused
// it (0 for a root); times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span belongs to: the part of its name before the
// first dot ("runcache.Get" belongs to runcache).
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
}

// named returns the durations of every span called name, in milliseconds.
func (t *tracer) named(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that overlap each other
// (concurrent work) are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		lo, hi := int64(0), int64(-1) // current merged interval; empty when hi < lo
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = ks, ke
			} else if ke > hi {
				hi = ke
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time per layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.layer()] += self[i]
	}
	return out
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms_by_layer"`
	Spans    []span             `json:"spans"`
}

// write saves the tracer's spans with their per-layer self time.
func (t *tracer) write(path, workload string, seed uint64) error {
	self := make(map[string]float64)
	for layer, ns := range layerSelf(t.spans) {
		self[layer] = ms(ns)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfMS: self, Spans: t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
