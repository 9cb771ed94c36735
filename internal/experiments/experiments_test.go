package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/soc"
)

const testSeed = 0x5EED

// Table 1's shape: ~50% error at every achievable temperature, and the
// post-cycle state close to the startup fingerprint.
func TestTable1Shape(t *testing.T) {
	res, err := Table1(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanErrorPct < 45 || row.MeanErrorPct > 55 {
			t.Errorf("%v°C error = %.2f%%, want ≈50%%", row.TempC, row.MeanErrorPct)
		}
		if len(row.PerCoreErrorPct) != 4 {
			t.Errorf("%v°C: %d cores", row.TempC, len(row.PerCoreErrorPct))
		}
	}
	if res.FracHDToStartup > 0.16 || res.FracHDToStartup < 0.04 {
		t.Errorf("frac HD to startup = %.3f, want ≈0.10", res.FracHDToStartup)
	}
	out := res.String()
	for _, want := range []string{"Table 1", "-40°C", "Error"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := Figure3(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.FractionOnes < 0.45 || res.FractionOnes > 0.55 {
		t.Errorf("fraction of ones = %v, want ≈0.5", res.FractionOnes)
	}
	if res.EntropyBitsPerByte < 7.5 {
		t.Errorf("entropy = %v, want ≈8 (noise)", res.EntropyBitsPerByte)
	}
	if len(res.WayImage) != 16*1024 {
		t.Errorf("way image size = %d, want 16KB (256×512b)", len(res.WayImage))
	}
	if len(res.PBM) == 0 || !strings.HasPrefix(string(res.PBM), "P4\n512") {
		t.Error("PBM rendering malformed")
	}
}

func TestTable2And3Content(t *testing.T) {
	t2 := Table2()
	if len(t2.Rows) != 3 {
		t.Fatalf("table 2 rows = %d", len(t2.Rows))
	}
	out := t2.String()
	for _, want := range []string{"BCM2711", "BCM2837", "i.MX535", "MxL7704", "128KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
	t3 := Table3()
	out = t3.String()
	for _, want := range []string{"TP15", "PP58", "SH13", "0.8V", "1.2V", "1.3V", "VDDAL1", "iRAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

func TestFigure4And6Render(t *testing.T) {
	f4, err := Figure4(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	out := f4.String()
	for _, want := range []string{"BUCK", "LDO", "VDD_CORE", "TP15", "Raspberry Pi 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 4 missing %q", want)
		}
	}
	f6 := Figure6()
	if len(f6.Entries) != 3 || !strings.Contains(f6.String(), "SH13") {
		t.Errorf("figure 6 wrong: %s", f6)
	}
}

func TestFigure5Steps(t *testing.T) {
	res, err := Figure5(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"identify target domain", "attach", "disconnect", "reconnect", "RAMINDEX"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 5 missing %q:\n%s", want, out)
		}
	}
}

// Figure 7: 100% retention accuracy on all cores of both Broadcom SoCs.
func TestFigure7Shape(t *testing.T) {
	results, err := Figure7(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d SoCs", len(results))
	}
	for _, r := range results {
		for c, acc := range r.RetentionAccuracy {
			if acc != 1.0 {
				t.Errorf("%s core %d retention = %v, want 1.0", r.SoCName, c, acc)
			}
		}
		for c, frac := range r.NOPFraction {
			if frac < 0.98 {
				t.Errorf("%s core %d NOP fraction = %v", r.SoCName, c, frac)
			}
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	res, err := Figure8(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// The 16KB app data (2048 words) sits in 32KB of d-cache: expect a
	// large 0xAA fraction.
	if res.PatternByteFraction < 0.25 {
		t.Errorf("0xAA fraction = %v, want substantial", res.PatternByteFraction)
	}
	if res.InstructionMatches < 1 {
		t.Error("app instructions not found in extracted i-cache")
	}
}

// Table 4's shape: ≈100% for 4-16KB arrays, high-80s-to-low-90s at 32KB,
// monotone in array size, with per-way overlap (duplicated elements).
func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 is the heavyweight experiment")
	}
	res, err := Table4(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("sizes = %d", len(res.Cells))
	}
	for si, sizeKB := range res.SizesKB {
		n := float64(sizeKB * 1024 / 8)
		for c := 0; c < res.Cores; c++ {
			cell := res.Cells[si][c]
			if cell.Union > n {
				t.Errorf("%dKB core %d: union %v exceeds element count %v", sizeKB, c, cell.Union, n)
			}
			switch sizeKB {
			case 4, 8, 16:
				if cell.ExtractedPct < 98.5 {
					t.Errorf("%dKB core %d: extracted %.2f%%, want ≈100%%", sizeKB, c, cell.ExtractedPct)
				}
			case 32:
				if cell.ExtractedPct < 75 || cell.ExtractedPct > 99 {
					t.Errorf("32KB core %d: extracted %.2f%%, want the Table 4 band", c, cell.ExtractedPct)
				}
			}
		}
	}
	// Monotone shape: 32KB extracts strictly less than 4KB on average.
	small := 0.0
	big := 0.0
	for c := 0; c < res.Cores; c++ {
		small += res.Cells[0][c].ExtractedPct
		big += res.Cells[3][c].ExtractedPct
	}
	if big >= small {
		t.Errorf("accuracy did not degrade with array size: 4KB %.2f vs 32KB %.2f", small/4, big/4)
	}
}

func TestSection72Shape(t *testing.T) {
	res, err := Section72(context.Background(), testSeed, soc.BCM2711())
	if err != nil {
		t.Fatal(err)
	}
	for c, n := range res.RegistersIntact {
		if n != 32 {
			t.Errorf("core %d: %d/32 registers intact, want all", c, n)
		}
	}
	if !res.XRegsClobbered {
		t.Error("X registers should be clobbered by boot firmware")
	}
}

func TestAccessibilityShape(t *testing.T) {
	res, err := Accessibility(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1AvailablePct != 100 {
		t.Errorf("L1 available = %.2f%%, want 100%%", res.L1AvailablePct)
	}
	if res.L2AvailablePct > 5 {
		t.Errorf("L2 available = %.2f%%, want ≈0%%", res.L2AvailablePct)
	}
	if res.IRAMAvailablePct < 93 || res.IRAMAvailablePct > 97 {
		t.Errorf("iRAM available = %.2f%%, want ≈95%%", res.IRAMAvailablePct)
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := Figure9(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallErrorPct < 1.5 || res.OverallErrorPct > 4.5 {
		t.Errorf("overall error = %.2f%%, want ≈2.7%%", res.OverallErrorPct)
	}
	// Quadrant (a) holds the scratchpad damage; (b) and (c) are clean;
	// (d) holds the end-of-iRAM damage.
	if res.QuadrantAccuracy[1] != 1 || res.QuadrantAccuracy[2] != 1 {
		t.Errorf("middle quadrants damaged: %v", res.QuadrantAccuracy)
	}
	if res.QuadrantAccuracy[0] >= 1 || res.QuadrantAccuracy[3] >= 1 {
		t.Errorf("edge quadrants should show damage: %v", res.QuadrantAccuracy)
	}
}

func TestFigure10Shape(t *testing.T) {
	res, err := Figure10(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) < 2 {
		t.Fatalf("clusters = %+v, want damage at beginning and end", res.Clusters)
	}
	// First cluster must cover the documented scratchpad range.
	first := res.Clusters[0]
	startAddr := first.FirstBlock * 512 / 8
	if startAddr > 0x1000 {
		t.Errorf("first cluster starts at offset %#x, want ≈0x83C", startAddr)
	}
	last := res.Clusters[len(res.Clusters)-1]
	endAddr := (last.LastBlock + 1) * 512 / 8
	if endAddr < 126*1024 {
		t.Errorf("last cluster ends at %#x, want near the iRAM top", endAddr)
	}
	if !strings.Contains(res.String(), "0x") {
		t.Error("rendering missing address ranges")
	}
}

func TestCountermeasuresShape(t *testing.T) {
	res, err := Countermeasures(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DefenseOutcome{}
	for _, o := range res.Outcomes {
		byName[o.Name] = o
	}
	mustSucceed := []string{
		"none (baseline)",
		"purge on orderly shutdown",
		"purge, but abrupt disconnect skips it",
	}
	for _, name := range mustSucceed {
		if o, ok := byName[name]; !ok || !o.AttackSucceeded {
			t.Errorf("%q: attack should succeed, got %+v", name, o)
		}
	}
	mustDefeat := []string{
		"purge ran (graceful power-down, for contrast)",
		"MBIST reset at startup",
		"power-toggle reset at startup",
		"TrustZone NS-bit enforcement",
		"mandated authenticated boot",
	}
	for _, name := range mustDefeat {
		if o, ok := byName[name]; !ok || o.AttackSucceeded {
			t.Errorf("%q: attack should be defeated, got %+v", name, o)
		}
	}
}

func TestProbeCurrentSweepShape(t *testing.T) {
	res, err := ProbeCurrentSweep(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Below the surge: degraded; above: perfect. Monotone overall.
	var below, above []float64
	for _, row := range res.Rows {
		if row.ProbeAmps < res.SurgeAmps {
			below = append(below, row.RetentionAccuracy)
		} else {
			above = append(above, row.RetentionAccuracy)
		}
	}
	for i, acc := range above {
		if acc != 1.0 {
			t.Errorf("above-surge row %d accuracy = %v, want 1.0", i, acc)
		}
	}
	if below[0] >= 1.0 {
		t.Errorf("weakest probe accuracy = %v, want degraded", below[0])
	}
	for i := 1; i < len(below); i++ {
		if below[i] < below[i-1]-0.02 {
			t.Errorf("accuracy not roughly monotone in probe current: %v", below)
		}
	}
}

func TestRetentionSweepShape(t *testing.T) {
	res := defaultRetentionSweep(t)
	// Colder is better at fixed off-time; longer is worse at fixed temp.
	for oi := range res.OffTimes {
		for ti := 1; ti < len(res.Temps); ti++ {
			if res.Cells[ti][oi].Retention < res.Cells[ti-1][oi].Retention-0.02 {
				t.Errorf("retention not improving with cold at off=%v: %v then %v",
					res.OffTimes[oi], res.Cells[ti-1][oi].Retention, res.Cells[ti][oi].Retention)
			}
		}
	}
	for ti := range res.Temps {
		for oi := 1; oi < len(res.OffTimes); oi++ {
			if res.Cells[ti][oi].Retention > res.Cells[ti][oi-1].Retention+0.02 {
				t.Errorf("retention not degrading with time at %v°C", res.Temps[ti])
			}
		}
	}
	// Anchor points: -110°C/20ms ≈ 0.8+ (literature); 25°C/20ms ≈ 0.5.
	find := func(tempC float64, off int) float64 {
		for ti, tc := range res.Temps {
			if tc == tempC {
				return res.Cells[ti][off].Retention
			}
		}
		t.Fatalf("temp %v not in sweep", tempC)
		return 0
	}
	if v := find(-110, 1); v < 0.75 {
		t.Errorf("-110°C/20ms retention = %v, want ≥0.75", v)
	}
	if v := find(25, 1); v > 0.60 {
		t.Errorf("25°C/20ms retention = %v, want ≈0.5", v)
	}
}

func TestDRAMColdBootShape(t *testing.T) {
	res, err := DRAMColdBoot(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScheduleByteDecayPct > 25 {
		t.Errorf("decay = %.1f%%, calibration drifted", res.ScheduleByteDecayPct)
	}
	if !res.KeyRecovered {
		t.Error("DRAM cold boot should recover the key")
	}
	if res.SRAMControlRecovered {
		t.Error("SRAM control should NOT recover the key (bistable decay)")
	}
}

func TestImprintBaselineShape(t *testing.T) {
	res, err := ImprintBaseline(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.VoltBootAccuracy != 1.0 {
		t.Errorf("Volt Boot accuracy = %v, want 1.0", res.VoltBootAccuracy)
	}
	// Monotone in years, chance at zero, modest at a decade.
	prev := 0.0
	for _, row := range res.Rows {
		if row.RecoveryAccuracy < prev-0.03 {
			t.Errorf("imprint recovery not monotone: %v years -> %v", row.Years, row.RecoveryAccuracy)
		}
		prev = row.RecoveryAccuracy
	}
	if first := res.Rows[0]; first.Years != 0 || first.RecoveryAccuracy > 0.56 {
		t.Errorf("0-year recovery = %v, want chance", first.RecoveryAccuracy)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.RecoveryAccuracy < 0.70 || last.RecoveryAccuracy > 0.95 {
		t.Errorf("%v-year recovery = %v, want modest (§9.2)", last.Years, last.RecoveryAccuracy)
	}
}

func TestHistoryTheftShape(t *testing.T) {
	res, err := HistoryTheft(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered() {
		t.Fatalf("PIN not recovered: %v vs %v", res.PIN, res.RecoveredPIN)
	}
	if res.TLBEntriesRecovered < 4 {
		t.Errorf("only %d valid TLB entries", res.TLBEntriesRecovered)
	}
}

func TestCaSELockShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy workload")
	}
	res, err := CaSELock(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.LockedAccuracy != 1.0 {
		t.Errorf("locked-way extraction = %v, want 1.0 (nothing can evict it)", res.LockedAccuracy)
	}
	if res.UnlockedAccuracy >= res.LockedAccuracy {
		t.Errorf("unlocked (%v) should lose elements vs locked (%v)", res.UnlockedAccuracy, res.LockedAccuracy)
	}
}

func TestWarmRebootShape(t *testing.T) {
	res, err := WarmReboot(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UndefendedRecovered {
		t.Error("undefended warm reboot should recover the DRAM secret")
	}
	if res.TCGRecoveredDRAM {
		t.Error("TCG reset mitigation should wipe the DRAM secret")
	}
	if res.TCGVoltBootAccuracy != 1.0 {
		t.Errorf("Volt Boot on TCG device = %v, want 1.0 (mitigation can't reach SRAM)", res.TCGVoltBootAccuracy)
	}
}

func TestContextSwitchLeakShape(t *testing.T) {
	res, err := ContextSwitchLeak(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	sawStolen, sawSafe := false, false
	for _, run := range res.Runs {
		// Recovery must correlate exactly with who was on-core.
		wantRecovered := run.OnCore == "crypto"
		if run.KeyRecovered != wantRecovered {
			t.Errorf("cut %d: on-core=%s recovered=%v — exposure must follow the scheduler",
				run.CutAfterInstr, run.OnCore, run.KeyRecovered)
		}
		if run.KeyRecovered {
			sawStolen = true
		} else {
			sawSafe = true
		}
	}
	if !sawStolen || !sawSafe {
		t.Errorf("cut points should catch both processes: %+v", res.Runs)
	}
}

func TestExtensionRenderersContainKeyFacts(t *testing.T) {
	imprint, err := ImprintBaseline(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if out := imprint.String(); !strings.Contains(out, "Volt Boot") || !strings.Contains(out, "years") {
		t.Errorf("imprint rendering: %s", out)
	}
	wr, err := WarmReboot(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if out := wr.String(); !strings.Contains(out, "TCG") || !strings.Contains(out, "RECOVERED") {
		t.Errorf("warm reboot rendering: %s", out)
	}
	cs, err := ContextSwitchLeak(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if out := cs.String(); !strings.Contains(out, "crypto") || !strings.Contains(out, "STOLEN") {
		t.Errorf("context switch rendering: %s", out)
	}
	ht, err := HistoryTheft(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if out := ht.String(); !strings.Contains(out, "PIN") || !strings.Contains(out, "TLB") {
		t.Errorf("history theft rendering: %s", out)
	}
}

func TestPUFCloneShape(t *testing.T) {
	res, err := PUFClone(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GenuineAccepted {
		t.Errorf("genuine chip rejected (HD %v)", res.GenuineHD)
	}
	if res.ImpostorAccepted {
		t.Errorf("impostor accepted (HD %v)", res.ImpostorHD)
	}
	if res.GenuineHD > 0.10 || res.ImpostorHD < 0.4 {
		t.Errorf("HD separation wrong: genuine %v impostor %v", res.GenuineHD, res.ImpostorHD)
	}
	if res.EnrollStablePct < 50 || res.EnrollStablePct > 95 {
		t.Errorf("stable fraction = %v%%", res.EnrollStablePct)
	}
}

func TestMCUAttackShape(t *testing.T) {
	res, err := MCUAttack(context.Background(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// 62/64 KB should be intact: ≈96.9% available.
	if res.AvailablePct < 95 || res.AvailablePct > 98 {
		t.Errorf("available = %.2f%%, want ≈96.9%%", res.AvailablePct)
	}
	if res.ClobberedBytes != 2048 {
		t.Errorf("clobbered = %d bytes, want the §6.2 2KB", res.ClobberedBytes)
	}
	if res.ProbeAmps > 0.1 {
		t.Errorf("probe needs %vA — memory domains should need almost nothing", res.ProbeAmps)
	}
}
