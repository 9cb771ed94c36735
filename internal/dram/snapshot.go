package dram

// Copy-on-write snapshots for DRAM, the companion of sram's ArraySnapshot
// (see internal/sram/snapshot.go for the sweep-loop rationale). Capture
// copies the byte array once and arms a dirty.Table over 4 KiB pages
// (internal/dirty documents the owner protocol); restore copies back
// only pages a write or a deferred-decay materialization touched since,
// then rewinds the power/outage scalars and the rng.
//
// The lazy retention fill makes the rng rewind sufficient on its own:
// logRetention values are drawn strictly in byte order from the module's
// dedicated stream, so rewinding retFilled and the rng state means any
// post-restore refill re-draws bit-identical values over the same prefix
// — entries beyond the captured retFilled keep stale values that the
// refill overwrites with the exact same numbers before anything reads
// them. The buffer itself is therefore never copied.

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// snapPageBytes is the dirty-tracking granularity: coarse because trial
// writes (payload load, dump regions) are contiguous multi-KB runs.
const (
	snapPageShift = 12
	snapPageBytes = 1 << snapPageShift
)

// ModuleSnapshot is the captured state of one Module, bound to the
// module it came from.
type ModuleSnapshot struct {
	mod  *Module
	data []byte

	retFilled int
	minLogRet float32
	maxLogRet float32
	rng       xrand.State

	powered  bool
	offSince sim.Time
	offTempK float64

	resolved   []uint64 // nil when no outage was pending at capture
	unresolved int
	outage     pendingOutage
}

// CaptureSnapshot records the module's complete observable state and
// arms dirty-page tracking for O(dirty) restores.
func (m *Module) CaptureSnapshot() *ModuleSnapshot {
	s := &ModuleSnapshot{
		mod:        m,
		data:       make([]byte, len(m.data)),
		retFilled:  m.retFilled,
		minLogRet:  m.minLogRet,
		maxLogRet:  m.maxLogRet,
		rng:        m.rng.State(),
		powered:    m.powered,
		offSince:   m.offSince,
		offTempK:   m.offTempK,
		unresolved: m.unresolved,
		outage:     m.outage,
	}
	copy(s.data, m.data)
	if m.resolved != nil {
		s.resolved = append([]uint64(nil), m.resolved...)
	}
	m.snapDirty.Arm((len(m.data) + snapPageBytes - 1) >> snapPageShift)
	m.snapOwner = s
	return s
}

// RestoreSnapshot rewinds the module to the captured state: dirty data
// pages only when s owns the dirty table, every page otherwise. The
// generation counter is bumped, never rewound.
func (m *Module) RestoreSnapshot(s *ModuleSnapshot) {
	if s.mod != m {
		panic(fmt.Sprintf("dram: RestoreSnapshot of %s onto %s", s.mod.name, m.name))
	}
	if m.snapOwner != s {
		m.snapDirty.MarkAll()
		m.snapOwner = s
	}
	for p, ok := m.snapDirty.Next(); ok; p, ok = m.snapDirty.Next() {
		b0 := p << snapPageShift
		b1 := min(b0+snapPageBytes, len(m.data))
		copy(m.data[b0:b1], s.data[b0:b1])
	}
	m.retFilled = s.retFilled
	m.minLogRet = s.minLogRet
	m.maxLogRet = s.maxLogRet
	m.rng.SetState(s.rng)
	m.powered = s.powered
	m.offSince = s.offSince
	m.offTempK = s.offTempK
	m.unresolved = s.unresolved
	m.outage = s.outage
	if s.resolved == nil {
		m.resolved = nil
	} else {
		if m.resolved == nil {
			m.resolved = make([]uint64, len(s.resolved))
		}
		copy(m.resolved, s.resolved)
	}
	m.gen++
}
