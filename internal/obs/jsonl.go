package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// JSONL is a Progress sink that appends each finished run's Record to a
// writer as one JSON object per line. It serialises concurrent writes with
// a mutex, so a single JSONL can be shared by all of a sweep's workers.
// Wrap files in a bufio.Writer and flush after the sweep if write volume
// matters; a full paper campaign is 810 lines, so it rarely does.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
}

// NewJSONL returns a JSONL writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// SweepStart does nothing: a run log holds runs, not sweeps.
func (l *JSONL) SweepStart(int) {}

// RunDone logs the finished run's record. A write error is dropped: a
// broken log must not kill a campaign.
func (l *JSONL) RunDone(u Update) {
	if u.Record != nil {
		_ = l.Log(*u.Record)
	}
}

// SweepDone does nothing.
func (l *JSONL) SweepDone(bool, time.Duration) {}

// Log appends one record as a single JSON line.
func (l *JSONL) Log(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.enc.Encode(r); err != nil {
		return fmt.Errorf("obs: jsonl: %w", err)
	}
	l.n++
	return nil
}

// Count reports how many records have been written.
func (l *JSONL) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// ReadJSONL parses a run log previously written by JSONL. Blank lines are
// skipped, so logs survive manual editing and concatenation.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return out, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: jsonl: %w", err)
	}
	return out, nil
}
