package runcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestClaimAcquireExclusive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.claim")

	c1, ok, err := AcquireClaim(path, "w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("first acquire: ok=%v err=%v", ok, err)
	}
	if c1.Owner() != "w1" {
		t.Fatalf("owner = %q", c1.Owner())
	}

	// A second worker must be refused while the lease is live.
	if _, ok, err := AcquireClaim(path, "w2", time.Minute); err != nil || ok {
		t.Fatalf("second acquire: ok=%v err=%v; want refused", ok, err)
	}

	info, found, err := ReadClaim(path)
	if err != nil || !found {
		t.Fatalf("ReadClaim: found=%v err=%v", found, err)
	}
	if info.Owner != "w1" || info.PID != os.Getpid() {
		t.Fatalf("claim info = %+v", info)
	}
	if info.Expired(time.Now()) {
		t.Fatal("fresh claim reads as expired")
	}

	if err := c1.Release(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := ReadClaim(path); found {
		t.Fatal("claim file survived Release")
	}
	// Released claims are re-acquirable.
	if _, ok, err := AcquireClaim(path, "w2", time.Minute); err != nil || !ok {
		t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
	}
}

func TestClaimStealAfterExpiry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0001.claim")

	// A dead worker: claim acquired with an already-past lease.
	if _, ok, err := AcquireClaim(path, "dead", -time.Second); err != nil || !ok {
		t.Fatalf("seed acquire: ok=%v err=%v", ok, err)
	}

	c2, ok, err := AcquireClaim(path, "alive", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal: ok=%v err=%v; want stolen", ok, err)
	}
	info, _, _ := ReadClaim(path)
	if info.Owner != "alive" {
		t.Fatalf("post-steal owner = %q", info.Owner)
	}

	// Renew pushes the deadline out; the claim stays unstealable.
	if err := c2.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := AcquireClaim(path, "vulture", time.Minute); ok {
		t.Fatal("renewed claim was stolen")
	}
}

func TestClaimStealRaceHasOneWinner(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0002.claim")
	if _, ok, err := AcquireClaim(path, "dead", -time.Second); err != nil || !ok {
		t.Fatalf("seed acquire: ok=%v err=%v", ok, err)
	}

	// Many workers race to steal the expired claim. At least one must win,
	// and the file must end owned by a winner (atomic rename: no torn or
	// mixed contents).
	const racers = 16
	winners := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		owner := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, err := AcquireClaim(path, owner, time.Minute); err == nil && ok {
				mu.Lock()
				winners[owner] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(winners) == 0 {
		t.Fatal("no racer stole the expired claim")
	}
	info, found, err := ReadClaim(path)
	if err != nil || !found {
		t.Fatalf("post-race ReadClaim: found=%v err=%v", found, err)
	}
	if !winners[info.Owner] {
		t.Fatalf("file owned by %q, which did not report winning", info.Owner)
	}
}

// TestClaimNeverReadTorn races acquirers that take and release one claim
// in a loop against readers polling it: a reader must only ever see no
// claim or a whole one, never a created-but-unwritten file.
func TestClaimNeverReadTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0004.claim")
	const acquirers, readers, rounds = 4, 4, 500
	var done sync.WaitGroup
	stop := make(chan struct{})
	var readersDone sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersDone.Add(1)
		go func() {
			defer readersDone.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := ReadClaim(path); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for a := 0; a < acquirers; a++ {
		owner := string(rune('a' + a))
		done.Add(1)
		go func() {
			defer done.Done()
			for i := 0; i < rounds; i++ {
				c, ok, err := AcquireClaim(path, owner, time.Minute)
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					if err := c.Release(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	done.Wait()
	close(stop)
	readersDone.Wait()
}

// TestClaimTornFileIsStolen: a claim file that does not parse still reads
// as an error, but AcquireClaim treats it as expired and steals it, so a
// damaged claim cannot stall its unit for good. A read error that is not a
// parse error (here the claim path is a directory) still stops the caller.
func TestClaimTornFileIsStolen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0003.claim")
	if err := os.WriteFile(path, []byte(`{"owner":"x","pi`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadClaim(path); err == nil {
		t.Fatal("torn claim file read without error")
	}
	c, ok, err := AcquireClaim(path, "w", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire over torn claim: ok=%v err=%v; want stolen", ok, err)
	}
	info, found, err := ReadClaim(path)
	if err != nil || !found || info.Owner != "w" {
		t.Fatalf("after steal: info=%+v found=%v err=%v; want owner w", info, found, err)
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}

	unreadable := filepath.Join(dir, "shard-0004.claim")
	if err := os.Mkdir(unreadable, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := AcquireClaim(unreadable, "w", time.Minute); err == nil || ok {
		t.Fatalf("acquire over an unreadable claim: ok=%v err=%v; want error", ok, err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Stored: 3, Bypassed: 4, Errors: 5, BytesRead: 6, BytesWritten: 7}
	b := Stats{Hits: 10, Misses: 20, Stored: 30, Bypassed: 40, Errors: 50, BytesRead: 60, BytesWritten: 70}
	got := a.Add(b)
	want := Stats{Hits: 11, Misses: 22, Stored: 33, Bypassed: 44, Errors: 55, BytesRead: 66, BytesWritten: 77}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	// Add and Sub are inverses.
	if got.Sub(b) != a {
		t.Fatal("Add then Sub did not round-trip")
	}
}

func TestStatsMarshalJSON(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Stored: 1, Bypassed: 2}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["lookups"] != float64(4) || m["hit_rate_pct"] != float64(75) {
		t.Fatalf("derived fields = %v / %v", m["lookups"], m["hit_rate_pct"])
	}
	// The derived keys decode back into a plain Stats without error.
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip: %+v != %+v", back, s)
	}
}

// TestClaimPathErrors drives the filesystem-error returns: acquiring in a
// directory that does not exist fails outright (not "held"), and renewing
// a claim whose directory vanished surfaces the write error.
func TestClaimPathErrors(t *testing.T) {
	dir := t.TempDir()
	gone := filepath.Join(dir, "nonexistent", "shard-0000.claim")
	if _, ok, err := AcquireClaim(gone, "w1", time.Minute); err == nil || ok {
		t.Fatalf("acquire in missing dir: ok=%v err=%v; want error", ok, err)
	}

	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	c, ok, err := AcquireClaim(filepath.Join(sub, "shard-0001.claim"), "w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if err := os.RemoveAll(sub); err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(time.Minute); err == nil {
		t.Fatal("renew with the claim directory gone succeeded")
	}
	// Release of an already-gone claim is a no-op, not an error.
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestClaimInfoRoundTrip(t *testing.T) {
	info := ClaimInfo{Owner: "w9", PID: 1234, Expires: time.Now().Add(time.Hour).UnixNano()}
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var back ClaimInfo
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != info {
		t.Fatalf("round trip: %+v != %+v", back, info)
	}
}
