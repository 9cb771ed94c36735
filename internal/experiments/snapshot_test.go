package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/soc"
)

// prepVictimBoard builds a quiet-env BCM2711 board and runs the shared
// sweep prefix: a pattern-fill victim followed by the victim run.
func prepVictimBoard(seed uint64) (*board.Board, error) {
	b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	victim, err := core.VictimPatternFillImage(0x100000, 2048, 0x5A)
	if err != nil {
		return nil, err
	}
	if err := core.RunVictim(b, victim, 50_000_000); err != nil {
		return nil, err
	}
	return b, nil
}

// flattenDumps reduces an extraction to one comparable byte string.
func flattenDumps(ext *core.CacheExtraction) []byte {
	var out []byte
	for _, d := range ext.Dumps {
		for _, way := range d.L1D {
			out = append(out, way...)
		}
		for _, way := range d.L1I {
			out = append(out, way...)
		}
	}
	return out
}

// TestSnapshotForkMatchesFreshBoots is the tentpole determinism gate:
// for each seed and each power path (probed Volt Boot, unprobed cold
// boot), N trials run from one snapshot-forked board must produce
// byte-identical extractions to N trials on N freshly built boards. The
// forked side runs through runner.MapWithResource with several workers,
// so `go test -race` also exercises the parallel claim.
func TestSnapshotForkMatchesFreshBoots(t *testing.T) {
	paths := []struct {
		name string
		tail func(b *board.Board, i int) ([]byte, error)
	}{
		{"voltboot", func(b *board.Board, i int) ([]byte, error) {
			cfg := core.DefaultAttackConfig()
			cfg.Probe.MaxAmps = []float64{3.5, 0.5, 4.0}[i]
			ext, err := core.VoltBootCaches(b, cfg)
			if err != nil {
				return nil, err
			}
			return flattenDumps(ext), nil
		}},
		{"coldboot", func(b *board.Board, i int) ([]byte, error) {
			ext, err := core.ColdBootCaches(b, []float64{0, -5, -40}[i], 5*sim.Millisecond, 50_000_000)
			if err != nil {
				return nil, err
			}
			return flattenDumps(ext), nil
		}},
	}
	for _, seed := range []uint64{0x5eed, 0xbeef} {
		for _, path := range paths {
			t.Run(fmt.Sprintf("%s/seed=%#x", path.name, seed), func(t *testing.T) {
				const trials = 3
				fresh := make([][]byte, trials)
				for i := 0; i < trials; i++ {
					b, err := prepVictimBoard(seed)
					if err != nil {
						t.Fatal(err)
					}
					if fresh[i], err = path.tail(b, i); err != nil {
						t.Fatal(err)
					}
				}
				type fork struct {
					b    *board.Board
					snap *board.Snapshot
				}
				forked, err := runner.MapWithResource(context.Background(), trials, 3,
					func() (*fork, error) {
						b, err := prepVictimBoard(seed)
						if err != nil {
							return nil, err
						}
						return &fork{b: b, snap: b.CaptureSnapshot()}, nil
					},
					func(f *fork, i int) ([]byte, error) {
						f.b.RestoreSnapshot(f.snap)
						return path.tail(f.b, i)
					})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < trials; i++ {
					if !bytes.Equal(fresh[i], forked[i]) {
						t.Errorf("trial %d: forked extraction differs from fresh boot", i)
					}
				}
			})
		}
	}
}

// TestSnapshotMutationIsolation checks copy-on-write isolation: a trial
// that mutates the board as heavily as possible — a full probed attack,
// DRAM writes, array fills — must leave no trace after the restore.
func TestSnapshotMutationIsolation(t *testing.T) {
	b, err := prepVictimBoard(0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func() []byte {
		var out []byte
		for _, cc := range b.SoC.Cores {
			for w := 0; w < b.Spec().L1D.Ways; w++ {
				out = append(out, cc.L1D.DumpWay(w)...)
				out = append(out, cc.L1I.DumpWay(w)...)
			}
		}
		out = append(out, b.SoC.DRAM.Read(0, 64*1024)...)
		out = append(out, fmt.Sprintf("pc=%#x instret=%d now=%d temp=%g",
			b.SoC.Cores[0].CPU.PC, b.SoC.Cores[0].CPU.Instret,
			b.Env.Now(), b.Env.TemperatureC())...)
		return out
	}
	snap := b.CaptureSnapshot()
	ref := fingerprint()

	if _, err := core.VoltBootCaches(b, core.DefaultAttackConfig()); err != nil {
		t.Fatal(err)
	}
	b.SoC.DRAM.Write(0x2000, bytes.Repeat([]byte{0xEE}, 8192))
	b.SoC.Cores[0].L1D.Arrays()[0].Fill(0x0F)
	if bytes.Equal(ref, fingerprint()) {
		t.Fatal("mutation did not change the fingerprint; test is vacuous")
	}

	b.RestoreSnapshot(snap)
	if !bytes.Equal(ref, fingerprint()) {
		t.Error("post-restore board is not bit-identical to the capture")
	}
}
