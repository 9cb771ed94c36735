package sram

// Copy-on-write snapshots: a sweep captures an array's full state once
// after the expensive boot-and-fill prefix, then restores it before each
// trial in O(dirty pages) instead of O(array size). Capturing copies the
// bits eagerly and arms a dirty.Table over snapPageWords-word pages; the
// owner protocol (arm on capture, drain on restore, mark-all on a
// non-owner restore) is documented in internal/dirty. Architectural
// writes mark their word range; physics events (power-up fingerprints,
// decay resolution) and Fill rewrite most of the array, so they mark
// every page at once rather than paying a per-word branch in the
// kernels.
//
// Determinism contract: a restored array is bit-identical to the array
// at capture time — same contents, same rail/decay scalars, same rng
// stream position, same imprint overlay — so a trial run from a restored
// snapshot consumes the identical draw sequence and produces the
// identical bytes as a trial run on a freshly built board that executed
// the same prefix. The only fields deliberately NOT restored are the
// derived-state generation counter (gen stays monotonic and is bumped by
// the restore, so consumers' cached stamps can never alias across a
// rewind) and the phase-A memo (m2Biased/m2Pref are immutable functions
// of the cell seed).

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// Snapshot page geometry: 64 packed words = 512 bytes per page. Small
// enough that a register-file write dirties 1/96th of the macro, large
// enough that the bitmap of a megabyte L2 array fits in 32 words.
const (
	snapPageShift = 6 // log2(words per page)
	snapPageWords = 1 << snapPageShift
	snapByteShift = snapPageShift + 3 // log2(bytes per page)
)

// ArraySnapshot is the captured state of one Array. It is bound to the
// array it was captured from; restoring it elsewhere is a programming
// error.
type ArraySnapshot struct {
	arr  *Array
	bits []uint64

	railVolts   float64
	belowSince  sim.Time
	decayTempK  float64
	decaying    bool
	heldVolts   float64
	everPowered bool
	rng         xrand.State

	// imprinted/value are deep copies of the aging overlay's bitsets,
	// nil when the array had no overlay at capture time.
	imprinted []uint64
	value     []uint64
}

// CaptureSnapshot records the array's complete state — contents, rail
// and decay scalars, rng stream position, and aging overlay — and arms
// dirty-page tracking so a later RestoreSnapshot runs in O(dirty pages).
// Unlike Snapshot (an architectural readout), capturing is a simulator-
// level fork point and is legal on an unpowered array.
func (a *Array) CaptureSnapshot() *ArraySnapshot {
	s := &ArraySnapshot{
		arr:         a,
		bits:        make([]uint64, len(a.bits)),
		railVolts:   a.railVolts,
		belowSince:  a.belowSince,
		decayTempK:  a.decayTempK,
		decaying:    a.decaying,
		heldVolts:   a.heldVolts,
		everPowered: a.everPowered,
		rng:         a.rng.State(),
	}
	copy(s.bits, a.bits)
	if a.imprint != nil {
		s.imprinted = append([]uint64(nil), a.imprint.imprinted...)
		s.value = append([]uint64(nil), a.imprint.value...)
	}
	a.snapDirty.Arm((len(a.bits) + snapPageWords - 1) >> snapPageShift)
	a.snapOwner = s
	return s
}

// RestoreSnapshot rewinds the array to the captured state. When s owns
// the dirty table (the common sweep loop: capture once, restore per
// trial), only dirty pages are copied back; restoring any other
// snapshot copies every page and hands the table to s. The content
// generation is bumped, not rewound, so stamps handed out after the
// capture can never falsely validate.
//
//voltvet:hotpath
func (a *Array) RestoreSnapshot(s *ArraySnapshot) {
	if s.arr != a {
		panic(fmt.Sprintf("sram: RestoreSnapshot of %s onto %s", s.arr.name, a.name))
	}
	if a.snapOwner != s {
		a.snapDirty.MarkAll()
		a.snapOwner = s
	}
	for p, ok := a.snapDirty.Next(); ok; p, ok = a.snapDirty.Next() {
		w0 := p << snapPageShift
		w1 := min(w0+snapPageWords, len(a.bits))
		copy(a.bits[w0:w1], s.bits[w0:w1])
	}
	a.railVolts = s.railVolts
	a.belowSince = s.belowSince
	a.decayTempK = s.decayTempK
	a.decaying = s.decaying
	a.heldVolts = s.heldVolts
	a.everPowered = s.everPowered
	a.rng.SetState(s.rng)
	if s.imprinted != nil {
		copy(a.imprint.imprinted, s.imprinted)
		copy(a.imprint.value, s.value)
	} else if a.imprint != nil {
		// The overlay appeared after the capture: clear it back to the
		// captured no-imprint state.
		for i := range a.imprint.imprinted {
			a.imprint.imprinted[i] = 0
			a.imprint.value[i] = 0
		}
	}
	a.gen++
}
