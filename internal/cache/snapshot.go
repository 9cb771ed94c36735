package cache

// Snapshot support for the cache's non-SRAM state. The tag and data RAMs
// are sram.Arrays and are captured by their own ArraySnapshots (the SoC
// enumerates them via Arrays()); what remains here is the plain-memory
// microarchitectural state a fork must also rewind so a restored trial
// replays bit-identically: LRU timestamps (they decide eviction order),
// the enable and way-lock configuration, and the hit/miss statistics.
//
// LRU timestamps are copy-on-write like the SRAM pages: lruDirty is a
// dirty.Table whose pages are sets (internal/dirty documents the owner
// protocol). touch marks its set, and restoring the owning snapshot (the
// capture-once, restore-per-trial loop) copies back only the touched
// sets — O(touched sets), not O(ways × sets).
//
// The way memo and contentGen are deliberately NOT captured: both are
// derived state. contentGen stays monotonic — RestoreAux bumps it, so
// predecode stamps issued after the capture can never falsely validate
// after the rewind — and the memo is simply dropped (its re-resolution
// is invisible to replacement order, stats, and contents).

// AuxSnapshot is the captured non-SRAM state of one Cache.
type AuxSnapshot struct {
	c          *Cache
	lastUse    [][]uint64
	useTick    uint64
	enabled    bool
	lockedWays []bool
	stats      Stats
}

// CaptureAux records the cache's plain-memory state.
func (c *Cache) CaptureAux() *AuxSnapshot {
	s := &AuxSnapshot{
		c:          c,
		lastUse:    make([][]uint64, len(c.lastUse)),
		useTick:    c.useTick,
		enabled:    c.enabled,
		lockedWays: append([]bool(nil), c.lockedWays...),
		stats:      c.stats,
	}
	for w := range c.lastUse {
		s.lastUse[w] = append([]uint64(nil), c.lastUse[w]...)
	}
	c.lruDirty.Arm(c.sets)
	c.lruOwner = s
	return s
}

// RestoreAux rewinds the cache's plain-memory state to the captured
// values, drops the way memo, and bumps the content generation. When s
// owns the dirty-set table only the sets touched since its capture or
// last restore are copied back; otherwise every set is, and the table
// passes to s.
func (c *Cache) RestoreAux(s *AuxSnapshot) {
	if s.c != c {
		panic("cache: RestoreAux onto a different cache")
	}
	if c.lruOwner != s {
		c.lruDirty.MarkAll()
		c.lruOwner = s
	}
	for set, ok := c.lruDirty.Next(); ok; set, ok = c.lruDirty.Next() {
		for w := range c.lastUse {
			c.lastUse[w][set] = s.lastUse[w][set]
		}
	}
	c.useTick = s.useTick
	c.enabled = s.enabled
	copy(c.lockedWays, s.lockedWays)
	c.stats = s.stats
	c.memoWay = -1
	c.contentGen++
}
