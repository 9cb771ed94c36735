// Copy-on-write SoC snapshots: the fork point sweeps use to boot and
// fill a device once, then re-run the per-trial tail many times without
// repaying the prefix. CaptureSnapshot records every bit of state a
// trial can observe — SRAM array words (register file, cache tag/data
// RAMs, TLB/BTB, iRAM) behind sram's dirty-page tables, DRAM behind its
// own page table, the caches' plain-memory microarchitectural state,
// each core's flop state, the power network, the boot counters, and the
// simulation clock — and RestoreSnapshot rewinds all of it in O(dirty
// pages).
//
// Determinism contract: a restored SoC is bit-identical to the SoC at
// capture time, including every rng stream position, so the trial tail
// replays exactly as it would on a freshly built board that ran the same
// prefix — the golden-pinned experiments exercise this equivalence on
// every run. The derived-state exceptions are the generation counters
// (mutGen and every array/cache/dram gen stay monotonic and are bumped
// by the restore, wholesale retiring predecode entries, superblocks, the
// cache way memos, and the TLB write memo — all of which rebuild with no
// architectural side effects) and the predecode/superblock tables
// themselves, which are left in place precisely because the bumped
// generations already invalidate every non-ROM entry.
package soc

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sram"
)

// Snapshot is the captured state of one SoC, bound to the SoC it came
// from. Restore-in-place: trials on the same board restore sequentially;
// cross-board parallelism forks one board per worker (see
// runner.MapWithResource).
type Snapshot struct {
	soc   *SoC
	now   sim.Time
	tempC float64

	arrays []*sram.ArraySnapshot // parallel to SoC.arrays
	dram   *dram.ModuleSnapshot

	// cpus, lastFetch, l1d and l1i are per core, parallel to SoC.Cores.
	cpus      []isa.CPUState
	lastFetch []uint64
	l1d, l1i  []*cache.AuxSnapshot
	l2        *cache.AuxSnapshot // nil without an L2

	coreDom, memDom, ioDom power.DomainSnapshot

	bootCount   int
	orderlyDown bool
	barriers    uint64
}

// CaptureSnapshot records the SoC's complete state and arms dirty-page
// tracking on every array and on DRAM.
func (s *SoC) CaptureSnapshot() *Snapshot {
	snap := &Snapshot{
		soc:         s,
		now:         s.Env.Now(),
		tempC:       s.Env.TemperatureC(),
		dram:        s.DRAM.CaptureSnapshot(),
		coreDom:     s.CoreDom.CaptureSnapshot(),
		memDom:      s.MemDom.CaptureSnapshot(),
		ioDom:       s.IODom.CaptureSnapshot(),
		bootCount:   s.bootCount,
		orderlyDown: s.orderlyDown,
		barriers:    s.barriers,
	}
	for _, a := range s.arrays {
		snap.arrays = append(snap.arrays, a.CaptureSnapshot())
	}
	for _, c := range s.Cores {
		snap.cpus = append(snap.cpus, c.CPU.CaptureState())
		snap.lastFetch = append(snap.lastFetch, c.lastFetch)
		snap.l1d = append(snap.l1d, c.L1D.CaptureAux())
		snap.l1i = append(snap.l1i, c.L1I.CaptureAux())
	}
	if s.L2 != nil {
		snap.l2 = s.L2.CaptureAux()
	}
	return snap
}

// RestoreSnapshot rewinds the SoC to the captured state in O(dirty
// pages) and retires every generation-stamped derived view.
func (s *SoC) RestoreSnapshot(snap *Snapshot) {
	if snap.soc != s {
		panic("soc: RestoreSnapshot onto a different SoC")
	}
	s.Env.Rewind(snap.now, snap.tempC)
	// Silent electrical rewind first: the array restores below bring the
	// load-side state (rail volts, decay clocks) back themselves, so the
	// domains must not push SetRail edges.
	s.CoreDom.RestoreSnapshot(snap.coreDom)
	s.MemDom.RestoreSnapshot(snap.memDom)
	s.IODom.RestoreSnapshot(snap.ioDom)
	for i, a := range s.arrays {
		a.RestoreSnapshot(snap.arrays[i])
	}
	s.DRAM.RestoreSnapshot(snap.dram)
	if s.L2 != nil {
		s.L2.RestoreAux(snap.l2)
	}
	for i, c := range s.Cores {
		c.L1D.RestoreAux(snap.l1d[i])
		c.L1I.RestoreAux(snap.l1i[i])
		c.CPU.RestoreState(snap.cpus[i])
		c.lastFetch = snap.lastFetch[i]
		// Poison the TLB write memo: its stamp predates the restore's gen
		// bump, and the sentinel can never match a live generation, so the
		// next translation rewrites its slot (with the identical word).
		c.tlbLastPage = 0
		c.tlbLastGen = ^uint64(0)
	}
	s.bootCount = snap.bootCount
	s.orderlyDown = snap.orderlyDown
	s.barriers = snap.barriers
	// One bump retires every predecoded instruction and superblock on
	// every core: predecGen folds mutGen into each non-ROM mode, and
	// ROM-mode entries are immutable-content derived state that stays
	// valid across any rewind.
	s.mutGen++
}
