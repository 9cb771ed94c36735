package soc

import (
	"repro/internal/isa"
	"repro/internal/sram"
)

// Register-file layout inside the per-core register SRAM array: the 31
// general-purpose registers first, then the 32 128-bit vector registers.
// Byte sizes: 31×8 = 248, padded to 256, + 32×16 = 512 → 768 bytes.
const (
	regfileXBase = 0
	regfileVBase = 256
	regfileBytes = 768
)

// RegFile backs a core's architectural registers with an SRAM array so
// register contents obey power-domain retention physics. This is the
// mechanism behind §7.2: vector registers are not touched by the boot
// sequence, so whatever survives in the cells is architecturally visible
// to post-reboot code.
type RegFile struct {
	arr *sram.Array
	// sink, when non-nil, counts the flop toggles of every GPR
	// writeback — the writeback half of power-trace capture, tapped
	// before the cells are overwritten so the dying value is one cheap
	// cell peek away. Nil when no capturer is armed: the write hot path
	// pays one nil check, the same discipline as the CPU fault hook and
	// the SoC bus tap.
	sink *isa.TraceSink
}

// NewRegFile wraps an SRAM array of at least regfileBytes bytes.
func NewRegFile(arr *sram.Array) *RegFile {
	if arr.Bytes() < regfileBytes {
		panic("soc: register array too small")
	}
	return &RegFile{arr: arr}
}

// Array exposes the backing SRAM array for power-domain attachment.
func (r *RegFile) Array() *sram.Array { return r.arr }

// SetTraceSink attaches (or, with nil, detaches) the writeback tap.
func (r *RegFile) SetTraceSink(sink *isa.TraceSink) { r.sink = sink }

// ReadX implements isa.RegBacking.
func (r *RegFile) ReadX(i int) uint64 {
	return r.arr.ReadUint64(regfileXBase + i*8)
}

// WriteX implements isa.RegBacking.
func (r *RegFile) WriteX(i int, v uint64) {
	if r.sink != nil {
		r.sink.RegWrite(r.arr.PeekUint64(regfileXBase+i*8), v)
	}
	r.arr.WriteUint64(regfileXBase+i*8, v)
}

// ReadV implements isa.RegBacking.
func (r *RegFile) ReadV(i int) [2]uint64 {
	base := regfileVBase + i*16
	return [2]uint64{r.arr.ReadUint64(base), r.arr.ReadUint64(base + 8)}
}

// WriteV implements isa.RegBacking.
func (r *RegFile) WriteV(i int, v [2]uint64) {
	base := regfileVBase + i*16
	r.arr.WriteUint64(base, v[0])
	r.arr.WriteUint64(base+8, v[1])
}
