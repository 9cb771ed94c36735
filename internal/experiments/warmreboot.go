package experiments

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/soc"
)

// WarmRebootResult is Ablation F: the BootJacker-style forced-restart
// baseline (§9.1) and its documented defense, contrasted with Volt Boot.
type WarmRebootResult struct {
	// UndefendedRecovered: warm reboot against a plain device recovers
	// the DRAM-resident secret.
	UndefendedRecovered bool
	// TCGRecoveredDRAM: the same warm reboot against a device with the
	// TCG reset mitigation — the DRAM secret must be gone.
	TCGRecoveredDRAM bool
	// TCGVoltBootAccuracy: Volt Boot's cache extraction accuracy on the
	// TCG-defended device — the mitigation does not reach on-chip SRAM,
	// so the attack still works.
	TCGVoltBootAccuracy float64
}

// warmRebootSecretOff is where the victim's DRAM-resident secret lives.
const warmRebootSecretOff = 0x150000

// WarmReboot stages a DRAM secret, force-reboots into an "attacker
// kernel", and checks recovery under both defense configurations; then
// runs Volt Boot against the defended device.
func WarmReboot(_ context.Context, seed uint64) (*WarmRebootResult, error) {
	secret := []byte("dram-resident disk encryption key")
	res := &WarmRebootResult{}

	attackerImg := func(b interface{ SignImage(*soc.BootImage) uint64 }) *soc.BootImage {
		// A do-nothing kernel: reading DRAM is the harness's job.
		words := []uint32{0xa8000000} // HLT #0
		return &soc.BootImage{Words: words}
	}

	// Undefended device.
	{
		b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		b.SoC.WriteDRAM(warmRebootSecretOff, secret)
		wr, err := core.WarmReboot(b, attackerImg(b.SoC))
		if err != nil {
			return nil, err
		}
		got := wr.DRAMImage(warmRebootSecretOff, len(secret))
		res.UndefendedRecovered = string(got) == string(secret)
	}

	// TCG-defended device: DRAM secret wiped, but the caches are not.
	{
		b, _, err := newBoard(soc.BCM2711(), soc.Options{TCGReset: true}, seed)
		if err != nil {
			return nil, err
		}
		b.SoC.WriteDRAM(warmRebootSecretOff, secret)
		// Also put a secret in the d-cache for the Volt Boot contrast.
		victim, err := core.VictimPatternFillImage(0x100000, 2048, 0x5A)
		if err != nil {
			return nil, err
		}
		if err := core.RunVictim(b, victim, 50_000_000); err != nil {
			return nil, err
		}
		truth := b.SoC.Cores[0].L1D.DumpWay(0)

		wr, err := core.WarmReboot(b, attackerImg(b.SoC))
		if err != nil {
			return nil, err
		}
		got := wr.DRAMImage(warmRebootSecretOff, len(secret))
		res.TCGRecoveredDRAM = string(got) == string(secret)

		ext, err := core.VoltBootCaches(b, core.DefaultAttackConfig())
		if err != nil {
			return nil, err
		}
		res.TCGVoltBootAccuracy = analysis.RetentionAccuracy(truth, ext.Dumps[0].L1D[0])
	}
	return res, nil
}

// String renders Ablation F.
func (r *WarmRebootResult) String() string {
	verdict := func(ok bool) string {
		if ok {
			return "RECOVERED"
		}
		return "wiped"
	}
	return fmt.Sprintf(
		"Ablation F: BootJacker-style warm reboot vs the TCG reset mitigation (§9.1)\n"+
			"  warm reboot, no defense:       DRAM secret %s\n"+
			"  warm reboot, TCG reset wipe:   DRAM secret %s\n"+
			"  Volt Boot on the TCG device:   d-cache extraction %s\n"+
			"  (the mitigation covers main memory; power domain separation walks past it)\n",
		verdict(r.UndefendedRecovered), verdict(r.TCGRecoveredDRAM), pct(r.TCGVoltBootAccuracy))
}
