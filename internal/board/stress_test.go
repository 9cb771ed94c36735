package board

// Power-sequencing stress fuzz: the core physical invariant of the whole
// reproduction is that SRAM behind a rail that never drops below the
// retention threshold is bit-stable through ANY sequence of power events,
// while SRAM that spends multi-millisecond intervals unpowered at room
// temperature always ends up uncorrelated with what it held. This test
// drives random event sequences and checks both directions.

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/xrand"
)

func TestPowerSequencingInvariants(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		seed := uint64(trial) * 31
		rng := xrand.New(seed + 5)
		env := sim.NewEnv()
		b, err := New(env, soc.BCM2711(), soc.Options{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		b.ConnectMain()

		// The held domain: a strong probe attached for the whole run.
		probe := power.NewBenchSupply("hold", 0, 10)
		if err := b.AttachProbe("TP15", probe); err != nil {
			t.Fatal(err)
		}

		// Reference contents in a held-domain array and an unheld one.
		held := b.SoC.Cores[0].L1D.Arrays()[0]
		held.Fill(0x5C)
		heldRef := held.Snapshot()
		unheld := b.SoC.L2.Arrays()[0] // memory domain, not probed
		unheld.Fill(0x5C)
		unheldRef := unheld.Snapshot()

		unheldDownFor := sim.Time(0)
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0:
				wasOn := b.MainConnected()
				b.DisconnectMain()
				_ = wasOn
			case 1:
				b.ConnectMain()
			case 2:
				d := sim.Time(rng.Intn(20)+1) * sim.Millisecond
				if !b.MainConnected() {
					unheldDownFor += d
				}
				env.Advance(d)
			case 3:
				// A second probe briefly parked on the memory-domain pad
				// then removed again — must not corrupt anything by
				// itself.
				p2 := power.NewBenchSupply("transient", 0, 10)
				if err := b.AttachProbe("C_MEM", p2); err != nil {
					t.Fatal(err)
				}
				env.Advance(sim.Millisecond)
				p2.Detach()
			}
		}
		b.ConnectMain()

		// Invariant 1: the continuously held array is bit-exact.
		if hd := analysis.FractionalHD(heldRef, held.Snapshot()); hd != 0 {
			t.Fatalf("trial %d: held array changed (HD %v)", trial, hd)
		}
		// Invariant 2: if the unheld domain spent ≥5ms dark at room
		// temperature, its contents are gone (≈50% HD).
		if unheldDownFor >= 5*sim.Millisecond {
			hd := analysis.FractionalHD(unheldRef, unheld.Snapshot())
			if hd < 0.4 {
				t.Fatalf("trial %d: unheld array retained after %v dark (HD %v)",
					trial, unheldDownFor, hd)
			}
		}
	}
}

// TestProbeAttachDuringOutage: attaching the probe while the board is
// already dark cannot resurrect lost data, but re-powers the domain for
// whatever comes next.
func TestProbeAttachDuringOutage(t *testing.T) {
	env := sim.NewEnv()
	b, err := New(env, soc.BCM2711(), soc.Options{}, 77)
	if err != nil {
		t.Fatal(err)
	}
	b.ConnectMain()
	arr := b.SoC.Cores[0].L1D.Arrays()[0]
	arr.Fill(0x3D)
	ref := arr.Snapshot()

	b.DisconnectMain()
	env.Advance(50 * sim.Millisecond) // data decays
	probe := power.NewBenchSupply("late", 0, 10)
	if err := b.AttachProbe("TP15", probe); err != nil {
		t.Fatal(err)
	}
	if hd := analysis.FractionalHD(ref, arr.Snapshot()); hd < 0.4 {
		t.Fatalf("late probe resurrected data (HD %v)", hd)
	}
	// But from now on the domain is held: fresh contents survive a
	// further outage.
	arr.Fill(0x99)
	ref2 := arr.Snapshot()
	env.Advance(3 * sim.Second)
	b.ConnectMain()
	if hd := analysis.FractionalHD(ref2, arr.Snapshot()); hd != 0 {
		t.Fatalf("held-late array lost data (HD %v)", hd)
	}
}
