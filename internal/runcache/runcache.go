// Package runcache is a content-addressed, on-disk store for experiment
// artefacts. Entries are opaque byte blobs addressed by a 32-byte key the
// caller derives from everything that determines the blob's content (for
// run results: the canonical RunConfig serialisation, the seed, and the
// module version — see experiment.CacheKey and docs/ARCHITECTURE.md, "Run
// cache"). Because the simulator is a pure function of its config, a hit
// can be substituted for a run byte-for-byte; repeated campaigns become
// pure cache replay and an interrupted sweep resumes exactly where it
// stopped.
//
// The store is a plain directory tree — dir/ab/abcdef….blob, sharded on
// the first key byte so campaign-scale entry counts (hundreds to tens of
// thousands) never pile into one directory. Writes are atomic
// (temp file + rename), so a cache shared by concurrent sweep workers, or
// killed mid-write by Ctrl-C, never exposes a torn entry. All methods are
// safe for concurrent use.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Key addresses one cache entry: a SHA-256 over the entry's full identity.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the on-disk entry name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyBuilder accumulates the parts of an entry's identity into a Key.
// Every part is written length-prefixed, so distinct part sequences can
// never collide by concatenation ("ab"+"c" vs "a"+"bc").
type KeyBuilder struct {
	h hash.Hash
}

// NewKey starts a fresh key derivation.
func NewKey() *KeyBuilder { return &KeyBuilder{h: sha256.New()} }

// Add appends identity parts in order. Order matters: the same parts in a
// different order produce a different key.
func (b *KeyBuilder) Add(parts ...string) *KeyBuilder {
	for _, p := range parts {
		b.h.Write(strconv.AppendInt(nil, int64(len(p)), 10))
		b.h.Write([]byte{'\n'})
		b.h.Write([]byte(p))
	}
	return b
}

// Addf appends one fmt-rendered identity part.
func (b *KeyBuilder) Addf(format string, args ...any) *KeyBuilder {
	return b.Add(fmt.Sprintf(format, args...))
}

// Key finalises the derivation.
func (b *KeyBuilder) Key() Key {
	var k Key
	b.h.Sum(k[:0])
	return k
}

// Stats counts what the cache did since it was opened. Counters only ever
// increase; take deltas with Sub to scope them to one sweep or campaign.
type Stats struct {
	// Hits and Misses count Get outcomes; Stored counts completed Puts.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Stored uint64 `json:"stored"`
	// Bypassed counts runs that were not cacheable at all (live probe
	// captures, packet taps, profile overrides) and never consulted the
	// store.
	Bypassed uint64 `json:"bypassed,omitempty"`
	// Errors counts I/O or decode failures. An unreadable entry is
	// counted both here and as a miss: the caller re-runs and overwrites.
	Errors uint64 `json:"errors,omitempty"`
	// BytesRead and BytesWritten meter entry payloads (not metadata).
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
}

// Add returns s + o counter-wise: the combined activity of two processes
// sharing one cache directory (e.g. campaign workers whose stats the
// coordinator folds together).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:         s.Hits + o.Hits,
		Misses:       s.Misses + o.Misses,
		Stored:       s.Stored + o.Stored,
		Bypassed:     s.Bypassed + o.Bypassed,
		Errors:       s.Errors + o.Errors,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
	}
}

// Sub returns s - o counter-wise: the activity between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:         s.Hits - o.Hits,
		Misses:       s.Misses - o.Misses,
		Stored:       s.Stored - o.Stored,
		Bypassed:     s.Bypassed - o.Bypassed,
		Errors:       s.Errors - o.Errors,
		BytesRead:    s.BytesRead - o.BytesRead,
		BytesWritten: s.BytesWritten - o.BytesWritten,
	}
}

// Lookups is the number of Get calls that reached the store.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate is Hits/Lookups in percent; 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return 100 * float64(s.Hits) / float64(n)
	}
	return 0
}

// MarshalJSON serialises the counters plus the derived lookup count and hit
// rate, so telemetry consumers (snapshots, health timelines)
// get the headline figure without recomputing it. Decoding the result back
// into a Stats works with the default decoder — the derived keys have no
// matching field and are ignored.
func (s Stats) MarshalJSON() ([]byte, error) {
	type plain Stats // shed the method to avoid recursing
	return json.Marshal(struct {
		plain
		Lookups uint64  `json:"lookups"`
		HitRate float64 `json:"hit_rate_pct"`
	}{plain(s), s.Lookups(), s.HitRate()})
}

// String renders the stats the way the binaries report them, e.g.
// "54 lookups, 54 hits (hit rate 100.0%), 0 stored, 0 bypassed".
func (s Stats) String() string {
	return fmt.Sprintf("%d lookups, %d hits (hit rate %.1f%%), %d stored, %d bypassed",
		s.Lookups(), s.Hits, s.HitRate(), s.Stored, s.Bypassed)
}

// Cache is one on-disk store rooted at a directory.
type Cache struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open returns a cache rooted at dir, creating the directory if needed.
// Several processes may share one directory; entries are content-addressed
// and written atomically, so concurrent writers at worst duplicate work.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// GobEncode and GobDecode make the type trivially encodable, so configs
// that carry a *Cache handle (e.g. experiment.SweepConfig) pass gob's
// eager field-type check. A cache is a live handle to a directory, not
// data: nothing is transmitted, and a decoded cache is the unusable zero
// value. Persisters strip the handle instead (see experiment.SaveSweep).
func (c *Cache) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode implements gob.GobDecoder; see GobEncode.
func (c *Cache) GobDecode([]byte) error { return nil }

// path maps a key to its entry file, sharded on the first key byte.
func (c *Cache) path(k Key) string {
	hx := k.String()
	return filepath.Join(c.dir, hx[:2], hx+".blob")
}

// Get returns the entry stored under k, or (nil, false) when absent. An
// entry that exists but cannot be read counts as a miss plus an error, so
// callers recompute and overwrite rather than fail.
func (c *Cache) Get(k Key) ([]byte, bool) {
	data, err := os.ReadFile(c.path(k))
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.stats.Hits++
		c.stats.BytesRead += uint64(len(data))
		return data, true
	case os.IsNotExist(err):
		c.stats.Misses++
		return nil, false
	default:
		c.stats.Misses++
		c.stats.Errors++
		return nil, false
	}
}

// Put stores data under k atomically: the blob is written to a temp file in
// the same shard directory and renamed into place, so readers (including
// concurrent sweep workers and future processes) only ever see complete
// entries. Writing the same key twice is harmless — content addressing
// means both writers carry identical bytes.
func (c *Cache) Put(k Key, data []byte) error {
	dst := c.path(k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return c.putErr(err)
	}
	if err := WriteFileAtomic(dst, data); err != nil {
		return c.putErr(err)
	}
	c.mu.Lock()
	c.stats.Stored++
	c.stats.BytesWritten += uint64(len(data))
	c.mu.Unlock()
	return nil
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory that is then renamed over path, so a reader sees the old file
// or the new one, never a torn one. The file gets mode 0644, as
// os.WriteFile would give it. A failed write removes its temp file. It is
// the one publish step of the cache, the campaign directory and telemetry
// snapshots.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

func (c *Cache) putErr(err error) error {
	c.mu.Lock()
	c.stats.Errors++
	c.mu.Unlock()
	return fmt.Errorf("runcache: put: %w", err)
}

// Discard removes the entry under k and reclassifies the hit that fetched
// it as a miss plus an error. Callers use it when a fetched entry fails to
// decode (torn by a crash mid-rename on a non-atomic filesystem, or
// written by an incompatible build): the entry is deleted so the caller's
// recompute-and-Put overwrites it cleanly.
func (c *Cache) Discard(k Key) {
	_ = os.Remove(c.path(k))
	c.mu.Lock()
	if c.stats.Hits > 0 {
		c.stats.Hits--
	}
	c.stats.Misses++
	c.stats.Errors++
	c.mu.Unlock()
}

// Bypass records a run that could not use the cache at all (see
// Stats.Bypassed).
func (c *Cache) Bypass() {
	c.mu.Lock()
	c.stats.Bypassed++
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len walks the store and counts entries on disk — all of them, including
// ones written by earlier processes (unlike Stats, which only meters this
// Cache's activity).
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".blob" {
			n++
		}
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("runcache: len: %w", err)
	}
	return n, nil
}
