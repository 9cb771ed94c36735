package cache

import (
	"fmt"
	"testing"

	"repro/internal/sram"
	"repro/internal/xrand"
)

// The dirty-set LRU restore must be indistinguishable from copying every
// timestamp back. Each test drives two identical caches through the same
// generated operation sequence; the one under test rewinds with
// RestoreAux, the reference with restoreAuxFull, and after every rewind
// their LRU timestamps and every set's next victim must agree.

// restoreAuxFull is the reference rewind: RestoreAux with the dirty-set
// bookkeeping removed — every timestamp of every way is copied back.
func restoreAuxFull(c *Cache, s *AuxSnapshot) {
	for w := range c.lastUse {
		copy(c.lastUse[w], s.lastUse[w])
	}
	c.useTick = s.useTick
	c.enabled = s.enabled
	copy(c.lockedWays, s.lockedWays)
	c.stats = s.stats
	c.memoWay = -1
	c.contentGen++
}

// forkSnap is a cache's AuxSnapshot plus the SRAM-array snapshots a
// full fork also takes: the tag RAM decides victims, so it must rewind
// with the LRU.
type forkSnap struct {
	aux    *AuxSnapshot
	arrays []*sram.ArraySnapshot
}

func captureFork(c *Cache) forkSnap {
	s := forkSnap{aux: c.CaptureAux()}
	for _, a := range c.Arrays() {
		s.arrays = append(s.arrays, a.CaptureSnapshot())
	}
	return s
}

func restoreFork(c *Cache, s forkSnap, full bool) {
	for i, a := range c.Arrays() {
		a.RestoreSnapshot(s.arrays[i])
	}
	if full {
		restoreAuxFull(c, s.aux)
	} else {
		c.RestoreAux(s.aux)
	}
}

// lruRig drives the cache under test and the reference in lockstep.
type lruRig struct {
	t         *testing.T
	rng       *xrand.Rand
	got, want *Cache
	memBytes  int
}

func newLRURig(t *testing.T, cfg Config, seed uint64) *lruRig {
	t.Helper()
	got, _, _ := newTestCache(t, cfg)
	want, _, _ := newTestCache(t, cfg)
	return &lruRig{t: t, rng: xrand.New(seed), got: got, want: want, memBytes: 4 * cfg.SizeBytes}
}

// burst applies n generated operations to both caches. Half the bursts
// confine themselves to a handful of lines, so only a few sets go dirty
// — the case the dirty-set restore exists for.
func (r *lruRig) burst(n int) {
	r.t.Helper()
	cfg := r.got.Config()
	lines := r.memBytes / cfg.LineBytes
	var hot []int
	if r.rng.Bool() {
		for i := 1 + r.rng.Intn(4); i > 0; i-- {
			hot = append(hot, r.rng.Intn(lines))
		}
	}
	buf := make([]byte, cfg.LineBytes)
	for i := 0; i < n; i++ {
		line := r.rng.Intn(lines)
		if hot != nil {
			line = hot[r.rng.Intn(len(hot))]
		}
		addr := uint64(line * cfg.LineBytes)
		op, v, w := r.rng.Intn(16), r.rng.Uint64(), r.rng.Intn(cfg.Ways)
		for _, c := range []*Cache{r.got, r.want} {
			var err error
			switch op {
			case 0, 1, 2, 3, 4:
				_, err = c.Access(addr, 8, false, 0, false)
			case 5, 6, 7, 8:
				_, err = c.Access(addr, 8, true, v, false)
			case 9:
				err = c.ReadLine(addr, buf)
			case 10:
				err = c.WriteLine(addr, buf)
			case 11:
				if way, set, ok := c.ResidentWaySet(addr); ok {
					c.TouchFetchHit(way, set)
				}
			case 12:
				err = c.CleanInvalidateVA(addr)
			case 13:
				err = c.ZeroLineVA(addr, false)
			case 14:
				// Toggle a way lock, never locking every way.
				locked := 0
				for x := 0; x < cfg.Ways; x++ {
					if c.WayLocked(x) {
						locked++
					}
				}
				if c.WayLocked(w) || locked < cfg.Ways-1 {
					c.LockWay(w, !c.WayLocked(w))
				}
			case 15:
				if v%8 == 0 {
					err = c.CleanInvalidateAll()
				}
			}
			if err != nil {
				r.t.Fatalf("op %d at %#x: %v", op, addr, err)
			}
		}
	}
}

func (r *lruRig) capture() (got, want forkSnap) {
	return captureFork(r.got), captureFork(r.want)
}

// restore rewinds both caches and compares them.
func (r *lruRig) restore(what string, got, want forkSnap) {
	r.t.Helper()
	restoreFork(r.got, got, false)
	restoreFork(r.want, want, true)
	g, w := r.got, r.want
	if g.useTick != w.useTick {
		r.t.Fatalf("%s: useTick %d, reference %d", what, g.useTick, w.useTick)
	}
	for way := range w.lastUse {
		for set, u := range w.lastUse[way] {
			if g.lastUse[way][set] != u {
				r.t.Fatalf("%s: lastUse[%d][%d] = %d, reference %d", what, way, set, g.lastUse[way][set], u)
			}
		}
	}
	for set := 0; set < w.sets; set++ {
		gv, gerr := g.victim(set)
		wv, werr := w.victim(set)
		if gv != wv || (gerr == nil) != (werr == nil) {
			r.t.Fatalf("%s: set %d victim %d (%v), reference %d (%v)", what, set, gv, gerr, wv, werr)
		}
	}
}

// lruConfigs spans a bitmap shorter than one word (8 sets) and one of
// several words (128 sets).
var lruConfigs = []Config{
	{Name: "tiny", SizeBytes: 2 * 1024, Ways: 4, LineBytes: 64},
	{Name: "l1", SizeBytes: 32 * 1024, Ways: 4, LineBytes: 64},
}

// TestRestoreAuxOwnerMatchesFullCopy: the sweep loop — capture once,
// then trial and restore over and over — rewinds only dirty sets and
// still matches a full copy after every trial.
func TestRestoreAuxOwnerMatchesFullCopy(t *testing.T) {
	for i, cfg := range lruConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			r := newLRURig(t, cfg, uint64(100+i))
			r.burst(500)
			sg, sw := r.capture()
			for trial := 0; trial < 60; trial++ {
				r.burst(r.rng.Intn(200))
				r.restore(fmt.Sprintf("trial %d", trial), sg, sw)
			}
		})
	}
}

// TestRestoreAuxAlternatingSnapshots: restoring a snapshot that does
// not own the bitmap falls back to a full copy and re-arms, so
// alternating between two snapshots (and repeating one) stays exact.
func TestRestoreAuxAlternatingSnapshots(t *testing.T) {
	for i, cfg := range lruConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			r := newLRURig(t, cfg, uint64(200+i))
			r.burst(300)
			ag, aw := r.capture()
			r.burst(300)
			bg, bw := r.capture()
			for trial := 0; trial < 60; trial++ {
				r.burst(r.rng.Intn(200))
				if r.rng.Bool() {
					r.restore(fmt.Sprintf("trial %d → A", trial), ag, aw)
				} else {
					r.restore(fmt.Sprintf("trial %d → B", trial), bg, bw)
				}
			}
		})
	}
}

// TestRestoreAuxCaptureAfterRestore: a capture taken after a restore
// takes the bitmap over, so restoring either the new snapshot or the
// one that owned the bitmap before it rewinds every set the other's
// tenure dirtied.
func TestRestoreAuxCaptureAfterRestore(t *testing.T) {
	for i, cfg := range lruConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			r := newLRURig(t, cfg, uint64(300+i))
			r.burst(300)
			snaps := [][2]forkSnap{}
			g, w := r.capture()
			snaps = append(snaps, [2]forkSnap{g, w})
			for round := 0; round < 30; round++ {
				r.burst(r.rng.Intn(200))
				s := snaps[r.rng.Intn(len(snaps))]
				r.restore(fmt.Sprintf("round %d restore", round), s[0], s[1])
				r.burst(r.rng.Intn(200))
				g, w := r.capture()
				snaps = append(snaps, [2]forkSnap{g, w})
				r.burst(r.rng.Intn(200))
				if r.rng.Bool() {
					r.restore(fmt.Sprintf("round %d fresh capture", round), g, w)
				} else {
					// The snapshot that owned the bitmap before the capture.
					r.restore(fmt.Sprintf("round %d previous owner", round), s[0], s[1])
				}
			}
		})
	}
}
