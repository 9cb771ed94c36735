package dram

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestModuleSnapshotRestore checks the dirty-page rewind, the retention
// rng-stream rewind (two outages replayed from the same snapshot must
// decay identically), and the scalar/outage state restore.
func TestModuleSnapshotRestore(t *testing.T) {
	env := sim.NewEnv()
	env.SetTemperatureC(-30)
	m := NewModule(env, "snaptest", 64*1024, DefaultRetentionModel(), 0x5eed)
	m.Write(0x1000, bytes.Repeat([]byte{0xA5}, 4096))
	m.Write(0x9000, bytes.Repeat([]byte{0x3C}, 100))

	snap := m.CaptureSnapshot()
	ref := m.Read(0, m.Size())
	t0 := env.Now()

	outage := func() []byte {
		m.PowerOff()
		env.Advance(25 * sim.Second)
		m.PowerOn()
		return m.Read(0, m.Size())
	}
	first := outage()
	if bytes.Equal(first, ref) {
		t.Fatal("outage decayed nothing; test is vacuous")
	}

	m.RestoreSnapshot(snap)
	env.Rewind(t0, -30)
	if got := m.Read(0, m.Size()); !bytes.Equal(ref, got) {
		t.Fatal("restore is not bit-identical to capture")
	}
	if !m.Powered() {
		t.Fatal("powered flag not restored")
	}

	second := outage()
	if !bytes.Equal(first, second) {
		t.Error("replayed outage decayed differently: retention rng was not rewound")
	}
}

// TestModuleSnapshotRestoreAfterWrites checks that plain writes after a
// capture are rewound via the dirty-page path.
func TestModuleSnapshotRestoreAfterWrites(t *testing.T) {
	env := sim.NewEnv()
	m := NewModule(env, "snaptest", 64*1024, DefaultRetentionModel(), 0xfeed)
	m.Write(0, bytes.Repeat([]byte{0x77}, 64*1024))

	snap := m.CaptureSnapshot()
	ref := m.Read(0, m.Size())

	m.Write(0, []byte{1, 2, 3})
	m.Write(snapPageBytes-1, []byte{9, 9}) // straddles page boundary
	m.WriteUintN(m.Size()-8, 8, 0xdeadbeef)
	m.RestoreSnapshot(snap)
	if got := m.Read(0, m.Size()); !bytes.Equal(ref, got) {
		t.Error("restored contents differ from capture")
	}
}

// TestModuleSnapshotRestoreNonOwner checks the non-owner path: restoring
// a snapshot the dirty table is not tracking against must copy every
// page back and hand the table to the restored snapshot, so the next
// owner restore rewinds through the dirty-page walk alone.
func TestModuleSnapshotRestoreNonOwner(t *testing.T) {
	env := sim.NewEnv()
	m := NewModule(env, "snaptest", 64*1024, DefaultRetentionModel(), 0xabcd)
	m.Write(0, bytes.Repeat([]byte{0x5A}, 64*1024))
	snap1 := m.CaptureSnapshot()
	ref1 := m.Read(0, m.Size())

	m.Write(3*snapPageBytes+17, []byte{1, 1, 1})
	m.CaptureSnapshot() // the table now tracks this newer snapshot

	m.Write(9*snapPageBytes-2, []byte{2, 2, 2, 2}) // straddles pages 8/9
	m.RestoreSnapshot(snap1)                       // non-owner: every page
	if got := m.Read(0, m.Size()); !bytes.Equal(ref1, got) {
		t.Fatal("non-owner restore is not bit-identical to its capture")
	}

	// snap1 owns the table now: a write after the fallback is rewound by
	// the dirty-page walk.
	m.WriteUintN(m.Size()-4, 4, 0x33333333)
	m.RestoreSnapshot(snap1)
	if got := m.Read(0, m.Size()); !bytes.Equal(ref1, got) {
		t.Error("owner restore after the non-owner fallback is not bit-identical")
	}
}
