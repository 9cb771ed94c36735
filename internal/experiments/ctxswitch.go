package experiments

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/aes"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/soc"
)

// ContextSwitchResult is Ablation G: under a multitasking OS, the
// register file physically holds whichever process was scheduled at the
// instant of the power cut, so register-resident secrets (TRESOR-style)
// are exposed exactly when their owner is on-core. "The attacker might
// catch another process" is a scheduling lottery, not a defense.
type ContextSwitchResult struct {
	// Runs records each capture attempt: which process was on-core and
	// whether the AES key fell out of the register dump.
	Runs []ContextSwitchRun
}

// ContextSwitchRun is one capture at one cut point.
type ContextSwitchRun struct {
	CutAfterInstr uint64
	OnCore        string
	KeyRecovered  bool
}

// ContextSwitchLeak schedules a "crypto" process (round key in V1) and a
// "browser" process (vector registers full of junk) on one core, cuts
// power at several points, and runs the register attack each time.
func ContextSwitchLeak(_ context.Context, seed uint64) (*ContextSwitchResult, error) {
	key := []byte("scheduler lottery")[:16]
	sched, err := aes.ExpandKey128(key)
	if err != nil {
		return nil, err
	}
	rk := aes.RoundKey(sched, 3)
	var lo, hi uint64
	for i := 0; i < 8; i++ {
		lo |= uint64(rk[i]) << (8 * i)
		hi |= uint64(rk[8+i]) << (8 * i)
	}

	res := &ContextSwitchResult{}
	// Cut points chosen to land in alternating quanta (quantum = 1000).
	for _, cut := range []uint64{1500, 2500, 3500, 4500} {
		b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		if err := b.SoC.Boot(nil); err != nil {
			return nil, err
		}
		// crypto: install the round key in V1, then spin.
		cryptoSrc := fmt.Sprintf(`
        LDIMM X0, #%#x
        INS V1, X0, #0
        LDIMM X0, #%#x
        INS V1, X0, #1
        MOVZ X0, #0
        LDIMM X6, #1000000
spin:   SUBI X6, X6, #1
        CBNZ X6, spin
        HLT #0
    `, lo, hi)
		cryptoWords, err := isa.Assemble(0x90000, cryptoSrc)
		if err != nil {
			return nil, err
		}
		browserWords, err := isa.Assemble(0xA0000, `
        VMOVI V1, #0x11
        LDIMM X6, #1000000
spin:   SUBI X6, X6, #1
        CBNZ X6, spin
        HLT #0
    `)
		if err != nil {
			return nil, err
		}
		for i, w := range cryptoWords {
			b.SoC.WriteDRAM(0x90000+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
		}
		for i, w := range browserWords {
			b.SoC.WriteDRAM(0xA0000+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
		}
		osSched := kernel.NewScheduler(b.SoC, 0, 1000)
		osSched.Add(&kernel.Process{Name: "crypto", Entry: 0x90000})
		osSched.Add(&kernel.Process{Name: "browser", Entry: 0xA0000})
		onCore, err := osSched.Run(cut)
		if err != nil {
			return nil, err
		}
		name := "idle"
		if onCore >= 0 {
			name = osSched.Processes()[onCore].Name
		}

		ext, err := core.VoltBootRegisters(b, core.DefaultAttackConfig())
		if err != nil {
			return nil, err
		}
		stolen := ext.PerCore[0][1] // V1
		recovered := false
		if got, err := aes.InvertSchedule128(stolen, 3); err == nil && bytes.Equal(got, key) {
			recovered = true
		}
		res.Runs = append(res.Runs, ContextSwitchRun{
			CutAfterInstr: cut,
			OnCore:        name,
			KeyRecovered:  recovered,
		})
	}
	return res, nil
}

// String renders Ablation G.
func (r *ContextSwitchResult) String() string {
	out := "Ablation G: register theft under multitasking (who is on-core at the cut?)\n"
	for _, run := range r.Runs {
		verdict := "key SAFE this time"
		if run.KeyRecovered {
			verdict = "key STOLEN"
		}
		out += fmt.Sprintf("  cut after %5d instr: %-8s on-core -> %s\n",
			run.CutAfterInstr, run.OnCore, verdict)
	}
	out += "  (exposure follows the scheduler: a lottery, not a defense)\n"
	return out
}
