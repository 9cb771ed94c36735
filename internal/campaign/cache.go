package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/registry"
)

// CacheKey content-addresses one experiment run: SHA-256 over the
// experiment name, the seed, and the canonical parameter string from
// registry.Experiment.Resolve. The fields are length-prefixed so no two
// distinct triples can collide by concatenation.
func CacheKey(experiment string, seed uint64, canonicalParams string) string {
	h := sha256.New()
	var buf [8]byte
	writeField := func(b []byte) {
		binary.BigEndian.PutUint64(buf[:], uint64(len(b)))
		h.Write(buf[:])
		h.Write(b)
	}
	writeField([]byte(experiment))
	binary.BigEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	writeField([]byte(canonicalParams))
	return hex.EncodeToString(h.Sum(nil))
}

// Tier identifies which layer of the cache hierarchy served a run.
// These are the values the HTTP layer exposes in X-Cache.
type Tier string

const (
	// TierMem: served from the in-memory result cache (including
	// coalescing onto an in-flight leader).
	TierMem Tier = "hit-mem"
	// TierDisk: served from the disk store and promoted to memory.
	TierDisk Tier = "hit-disk"
	// TierMiss: simulated by this node.
	TierMiss Tier = "miss"
	// TierForward: executed by a fabric peer that owns the key.
	TierForward Tier = "forward"
)

// cacheEntry is one key's slot in the in-memory result cache: pending
// while a leader simulates, complete (rec or err) afterwards, or
// aborted when the leader was cancelled before finishing. done closes
// exactly once, on completion or abort; an aborted entry is already
// unlinked from the map, so a waiter that observes it retries and may
// become the next leader.
type cacheEntry struct {
	done    chan struct{}
	rec     json.RawMessage
	err     error
	aborted bool
}

// RunRecord is the deterministic per-run result record. It contains only
// content derived from the run's inputs and outputs — no job IDs, no
// timestamps, no node identity — so identical keys marshal to identical
// bytes on every node of the fabric, which is what makes the cache's
// byte-identical-replay guarantee checkable from the outside.
type RunRecord struct {
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Params     map[string]string `json:"params,omitempty"`
	Key        string            `json:"key"`
	Output     string            `json:"output"`
	Artifacts  []ArtifactRecord  `json:"artifacts,omitempty"`
}

// ArtifactRecord carries one binary artifact of a run. Data is base64 in
// JSON (encoding/json's []byte convention), so arbitrary binary payloads
// — packed trace sets included — survive the store and the fabric
// byte-identically; SHA256 and Size let consumers check that without
// decoding.
type ArtifactRecord struct {
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	SHA256 string `json:"sha256"`
	Size   int    `json:"size"`
	Data   []byte `json:"data"`
}

// ResolveRun validates one run against the registry and returns it with
// params in canonical form plus its content-address cache key. This is
// the same resolution Submit applies; the fabric intake handler uses it
// to verify a forwarded run before executing it.
func (m *Manager) ResolveRun(rs RunSpec) (RunSpec, string, error) {
	exp, ok := m.reg.Lookup(rs.Experiment)
	if !ok {
		return RunSpec{}, "", fmt.Errorf("campaign: unknown experiment %q", rs.Experiment)
	}
	params, canon, err := exp.Resolve(rs.Params)
	if err != nil {
		return RunSpec{}, "", err
	}
	return RunSpec{Experiment: rs.Experiment, Seed: rs.Seed, Params: params},
		CacheKey(rs.Experiment, rs.Seed, canon), nil
}

// ServeRun executes one resolved run through the local cache hierarchy:
// memory hit → disk hit → compute, with single-flight coalescing across
// the whole promotion path (concurrent identical keys share one disk
// probe and at most one simulation). It never forwards — by the time a
// run reaches ServeRun, this node is its executor — so fabric membership
// disagreements can never produce a forwarding loop.
//
// rs must be resolved (params canonical) and key must be its CacheKey;
// Submit and the fabric intake both guarantee this.
func (m *Manager) ServeRun(ctx context.Context, rs RunSpec, key string) (json.RawMessage, Tier, error) {
	for {
		m.mu.Lock()
		if e := m.cache[key]; e != nil {
			m.mu.Unlock()
			select {
			case <-e.done:
				// e's fields are written before done closes (under the
				// manager lock); the close is the happens-before edge.
				if e.aborted {
					continue // leader cancelled; contend for leadership
				}
				return e.rec, TierMem, e.err
			case <-ctx.Done():
				return nil, TierMem, ctx.Err()
			}
		}
		// Leader: claim the key, probe the disk and simulate outside
		// the lock.
		e := &cacheEntry{done: make(chan struct{})}
		m.cache[key] = e
		m.mu.Unlock()

		if m.store != nil {
			val, ok, err := m.store.Get(key)
			if err == nil && ok {
				// Disk hit: promote into the memory tier. The store
				// shares the slice; the record is immutable everywhere.
				m.completeEntry(key, e, json.RawMessage(val), nil)
				return json.RawMessage(val), TierDisk, nil
			}
			// A store read error degrades to a recompute, not a failure:
			// the store is a cache, the simulator is the truth.
		}

		rec, err := m.computeRun(ctx, rs, key)
		if err != nil && (ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, ErrRunTimeout)) {
			// Cancelled or timed out mid-run: the result never
			// materialized, so the key must not be poisoned. Unlink and
			// wake waiters to retry (one of them becomes the next
			// leader). A timeout is not deterministic — it depends on
			// the node's wall clock — so unlike a run failure it is
			// never cached in any tier.
			m.mu.Lock()
			delete(m.cache, key)
			e.aborted = true
			close(e.done)
			m.mu.Unlock()
			if ctx.Err() != nil {
				return nil, TierMiss, ctx.Err()
			}
			return nil, TierMiss, err
		}
		// Completed runs — successes and deterministic failures alike —
		// stay cached in memory: the same inputs would fail the same
		// way. Only successes persist to disk (the store holds result
		// bytes, not errors).
		m.completeEntry(key, e, rec, err)
		if err == nil && m.store != nil {
			// A failed disk append degrades to a memory-only entry; the
			// next cold lookup recomputes deterministically.
			_ = m.store.Put(key, rec)
		}
		return rec, TierMiss, err
	}
}

// completeEntry publishes a leader's result and trims the memory tier.
func (m *Manager) completeEntry(key string, e *cacheEntry, rec json.RawMessage, err error) {
	m.mu.Lock()
	e.rec, e.err = rec, err
	close(e.done)
	m.fifo = append(m.fifo, memKey{key: key, e: e})
	m.evictMemLocked()
	m.mu.Unlock()
}

// evictMemLocked bounds the in-memory result cache: completed entries
// are dropped in completion order (oldest first) once the map exceeds
// MemEntries. Pending entries are never evicted — they carry the
// single-flight state. Dropped entries remain on disk (when a store is
// configured) and re-promote on next use.
func (m *Manager) evictMemLocked() {
	for len(m.cache) > m.memCap && len(m.fifo) > 0 {
		head := m.fifo[0]
		m.fifo = m.fifo[1:]
		// Only unlink if the map still points at this exact entry: the
		// key may have been aborted and re-led since.
		if cur := m.cache[head.key]; cur == head.e {
			delete(m.cache, head.key)
		}
	}
}

// computeRun simulates one run and marshals its deterministic record.
// With RunTimeout configured, the experiment runs under a child
// deadline; an error returned after it fires — while the parent context
// is still live — is reported as ErrRunTimeout, distinct from a caller
// cancellation. A late run that still returns a result is kept: the
// record is the same whenever it is computed.
func (m *Manager) computeRun(ctx context.Context, rs RunSpec, key string) (json.RawMessage, error) {
	exp, ok := m.reg.Lookup(rs.Experiment)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown experiment %q", rs.Experiment)
	}
	runCtx := ctx
	if m.runTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, m.runTimeout)
		defer cancel()
	}
	res, err := exp.Run(runCtx, registry.Request{Seed: rs.Seed, Params: rs.Params})
	if err != nil {
		if m.runTimeout > 0 && errors.Is(runCtx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			return nil, fmt.Errorf("%w (%v): %v", ErrRunTimeout, m.runTimeout, err)
		}
		return nil, err
	}
	rec := RunRecord{
		Experiment: rs.Experiment,
		Seed:       rs.Seed,
		Params:     rs.Params,
		Key:        key,
		Output:     res.Text,
	}
	for _, a := range res.Artifacts {
		sum := sha256.Sum256(a.Data)
		rec.Artifacts = append(rec.Artifacts, ArtifactRecord{
			Name:   a.Name,
			Kind:   a.Kind,
			SHA256: hex.EncodeToString(sum[:]),
			Size:   len(a.Data),
			Data:   a.Data,
		})
	}
	return json.Marshal(rec)
}

// assembleBody concatenates per-run records into the job result body
// without re-marshaling: each record is already compact JSON (it came
// out of json.Marshal), so splicing raw bytes produces exactly what
// marshaling a {"runs": [...]} wrapper used to, minus the redundant
// compaction pass over every cached record.
func assembleBody(records []json.RawMessage) []byte {
	n := len(`{"runs":[]}`) + len(records) // brackets + commas
	for _, r := range records {
		n += len(r)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, `{"runs":[`...)
	for i, r := range records {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, r...)
	}
	return append(buf, ']', '}')
}
