// Package dirty is the copy-on-write page table behind every simulator
// snapshot: sram arrays (64-word pages), DRAM modules (4 KiB pages) and
// the caches' LRU clocks (one page per set) all track what a trial
// touched with one Table and rewind only those pages.
//
// The owner protocol lives with each owner, not here. A memory arms its
// table when it captures a snapshot and records that snapshot as the
// table's owner. Every write path marks the pages it can change.
// Restoring the owner drains the table with Next and copies back only
// the popped pages. Restoring any other snapshot first marks every page
// (MarkAll) and adopts the restored snapshot as owner, so the same walk
// becomes a full copy and leaves the table clean for the next trial.
//
// Next pops one page per call instead of taking a callback, so the
// restore walk stays a plain loop on the allocation-free hot path.
package dirty

import "math/bits"

// Table is a set of dirty pages, one bit per page. The zero Table is
// disarmed: Mark and MarkAll do nothing and Next finds nothing until Arm
// sizes it, which keeps an untracked memory's write path at one nil
// check.
type Table struct {
	words []uint64
	pages int
	// cur is the lowest word that may hold a set bit; every word below
	// it is zero. Next resumes there instead of rescanning from word 0,
	// and Mark lowers it.
	cur int
}

// Arm sizes the table for pages pages, all clean. Re-arming with a
// page count that fits the current storage allocates nothing.
func (t *Table) Arm(pages int) {
	n := (pages + 63) >> 6
	if t.words == nil || cap(t.words) < n {
		t.words = make([]uint64, n)
	} else {
		t.words = t.words[:n]
		clear(t.words)
	}
	t.pages = pages
	t.cur = n
}

// Mark dirties pages lo through hi inclusive; lo > hi marks nothing.
func (t *Table) Mark(lo, hi int) {
	if t.words == nil {
		return
	}
	for p := lo; p <= hi; p++ {
		t.words[p>>6] |= 1 << (uint(p) & 63)
	}
	if w := lo >> 6; w < t.cur {
		t.cur = w
	}
}

// MarkAll dirties every page. The final word is masked to the real page
// count so Next never pops a page past the end.
func (t *Table) MarkAll() {
	if t.words == nil {
		return
	}
	for i := range t.words {
		t.words[i] = ^uint64(0)
	}
	if tail := uint(t.pages) & 63; tail != 0 {
		t.words[len(t.words)-1] = 1<<tail - 1
	}
	t.cur = 0
}

// Next removes the lowest dirty page from the table and returns it; ok
// is false once the table is clean.
func (t *Table) Next() (page int, ok bool) {
	for ; t.cur < len(t.words); t.cur++ {
		if w := t.words[t.cur]; w != 0 {
			t.words[t.cur] = w & (w - 1)
			return t.cur<<6 + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}
