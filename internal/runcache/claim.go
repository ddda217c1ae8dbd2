// Claim files give cooperating processes a way to partition work over a
// shared cache directory without ever locking the blobs themselves. A claim
// is a small JSON file created atomically (a temp file hard-linked into
// place, or renamed over an expired claim when stealing it) that says
// "this worker is computing this unit until this deadline". Claims are advisory: they keep workers off each
// other's shards in the common case, but correctness never depends on them
// — the blobs are content-addressed and written atomically, so two workers
// that do end up racing the same unit merely duplicate work and produce
// identical entries. A worker that dies (SIGKILL, OOM, power loss) simply
// stops renewing; once the lease expires, any other worker steals the
// claim and re-executes the unit, replaying whatever runs the dead worker
// already cached.
package runcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ClaimInfo is the on-disk payload of one claim file.
type ClaimInfo struct {
	// Owner identifies the claiming worker (unique per worker process).
	Owner string `json:"owner"`
	// PID is the claiming process, recorded for post-mortem debugging only;
	// expiry decisions use the lease deadline, never PID liveness (the PID
	// may belong to a different host sharing the cache directory).
	PID int `json:"pid"`
	// Expires is the lease deadline in Unix nanoseconds. A claim whose
	// deadline has passed is stale and may be stolen.
	Expires int64 `json:"expires_unix_ns"`
}

// Expired reports whether the lease deadline has passed at now.
func (c ClaimInfo) Expired(now time.Time) bool {
	return now.UnixNano() > c.Expires
}

// Claim is a held lease on one work unit.
type Claim struct {
	path  string
	owner string
}

// Owner returns the claim's owner string.
func (c *Claim) Owner() string { return c.owner }

// writeClaimTo writes info as JSON to path via temp+rename in the same
// directory, so readers never observe a torn claim.
func writeClaimTo(path string, info ClaimInfo) error {
	tmp, err := writeClaimTemp(path, info)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runcache: claim: %w", err)
	}
	return nil
}

// writeClaimTemp writes info as JSON to a fresh temp file beside path and
// returns the temp file's name; the caller moves it into place or removes
// it.
func writeClaimTemp(path string, info ClaimInfo) (string, error) {
	data, err := json.Marshal(info)
	if err != nil {
		return "", fmt.Errorf("runcache: claim: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "claim-*.tmp")
	if err != nil {
		return "", fmt.Errorf("runcache: claim: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("runcache: claim: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("runcache: claim: %w", err)
	}
	return tmp.Name(), nil
}

// errTornClaim marks a claim file that exists but does not parse. Claims
// are only ever moved into place whole, so such a file was damaged from
// outside (a torn disk write, a stray editor); it protects nothing.
var errTornClaim = errors.New("unparseable claim")

// ReadClaim reads the claim file at path. ok is false when no claim exists.
// An unreadable or unparseable claim file is reported as an error;
// AcquireClaim treats an unparseable one as expired and steals it.
func ReadClaim(path string) (info ClaimInfo, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ClaimInfo{}, false, nil
	}
	if err != nil {
		return ClaimInfo{}, false, fmt.Errorf("runcache: claim: %w", err)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return ClaimInfo{}, false, fmt.Errorf("runcache: claim %s: %w: %w", path, errTornClaim, err)
	}
	return info, true, nil
}

// AcquireClaim attempts to take the claim at path for owner with the given
// lease. It succeeds when no claim exists (a fully written temp file is
// hard-linked into place, so exactly one of several simultaneous creators
// wins and no reader ever sees a partial claim) or when the existing
// claim's lease has expired or its file does not parse (stolen via
// rename, then re-read to confirm the steal was not itself raced). ok is
// false when the claim is validly held by someone else.
func AcquireClaim(path, owner string, ttl time.Duration) (claim *Claim, ok bool, err error) {
	info := ClaimInfo{Owner: owner, PID: os.Getpid(), Expires: time.Now().Add(ttl).UnixNano()}
	tmp, err := writeClaimTemp(path, info)
	if err != nil {
		return nil, false, err
	}
	err = os.Link(tmp, path)
	switch {
	case err == nil:
		os.Remove(tmp)
		return &Claim{path: path, owner: owner}, true, nil
	case !os.IsExist(err):
		os.Remove(tmp)
		return nil, false, fmt.Errorf("runcache: claim: %w", err)
	}

	// The claim exists. Steal it only if its lease has expired or it
	// cannot be parsed: correctness never depends on a claim, so the
	// worst a wrong steal costs is a recompute, while honouring a torn
	// claim would stall its unit for good.
	existing, found, err := ReadClaim(path)
	switch {
	case errors.Is(err, errTornClaim):
		// Stolen below, like an expired lease.
	case err != nil:
		os.Remove(tmp)
		return nil, false, err
	case found && !existing.Expired(time.Now()):
		os.Remove(tmp)
		return nil, false, nil
	}
	// The holder is dead (or the claim vanished under us). Replace it
	// atomically, then re-read: if another worker stole it in the same
	// window, exactly one rename landed last and its owner reads back.
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, false, fmt.Errorf("runcache: claim: %w", err)
	}
	confirm, found, err := ReadClaim(path)
	if err != nil {
		return nil, false, err
	}
	if !found || confirm.Owner != owner {
		return nil, false, nil // lost the steal race
	}
	return &Claim{path: path, owner: owner}, true, nil
}

// Renew extends the lease. The claim file is rewritten whole; a renewal of
// a claim that was meanwhile stolen (this worker stalled past its own
// lease) re-takes it, which is safe for the same reason stealing is: the
// protected work is idempotent.
func (c *Claim) Renew(ttl time.Duration) error {
	return writeClaimTo(c.path, ClaimInfo{
		Owner: c.owner, PID: os.Getpid(), Expires: time.Now().Add(ttl).UnixNano(),
	})
}

// Release removes the claim file. Releasing a claim someone else has since
// stolen removes their claim too — callers release only after publishing
// their result, at which point the unit's done-marker makes any claim
// irrelevant.
func (c *Claim) Release() error {
	if err := os.Remove(c.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("runcache: claim: %w", err)
	}
	return nil
}
