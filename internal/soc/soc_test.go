package soc

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
)

// poweredSoC builds a device and raises both SRAM domains with ideal
// bench supplies (the board package provides the real PMIC; these tests
// exercise the SoC in isolation).
func poweredSoC(t testing.TB, spec DeviceSpec, opts Options) (*SoC, *sim.Env) {
	t.Helper()
	env := sim.NewEnv()
	s, err := New(env, spec, opts, 0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	corePSU := power.NewBenchSupply("test-core", spec.CoreVolts, 10)
	memPSU := power.NewBenchSupply("test-mem", spec.MemVolts, 10)
	corePSU.AttachTo(s.CoreDom)
	memPSU.AttachTo(s.MemDom)
	return s, env
}

func mustAsm(t testing.TB, base uint64, src string) []uint32 {
	t.Helper()
	words, err := isa.Assemble(base, src)
	if err != nil {
		t.Fatal(err)
	}
	return words
}

func TestCatalogSanity(t *testing.T) {
	devs := Catalog()
	if len(devs) != 3 {
		t.Fatalf("catalog has %d devices", len(devs))
	}
	pads := map[string]string{"Raspberry Pi 3": "PP58", "Raspberry Pi 4": "TP15", "i.MX53 QSB": "SH13"}
	volts := map[string]float64{"Raspberry Pi 3": 1.2, "Raspberry Pi 4": 0.8, "i.MX53 QSB": 1.3}
	for _, d := range devs {
		if pads[d.Board] != d.TestPad {
			t.Errorf("%s pad = %s, want %s", d.Board, d.TestPad, pads[d.Board])
		}
		var padVolts float64
		if d.PadDomain == CoreDomain {
			padVolts = d.CoreVolts
		} else {
			padVolts = d.MemVolts
		}
		if padVolts != volts[d.Board] {
			t.Errorf("%s pad voltage = %v, want %v (Table 3)", d.Board, padVolts, volts[d.Board])
		}
	}
	// Figure 3 geometry: BCM2711 d-cache way = 256 sets × 512 bits.
	if c := BCM2711().L1D; c.Sets() != 256 || c.SizeBytes/c.Ways != 16*1024 {
		t.Errorf("BCM2711 L1D geometry wrong: %+v", c)
	}
}

func TestBootRequiresPower(t *testing.T) {
	env := sim.NewEnv()
	s, err := New(env, BCM2711(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(nil); !errors.Is(err, ErrUnpowered) {
		t.Fatalf("boot unpowered = %v, want ErrUnpowered", err)
	}
}

func TestBootAndRunProgram(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	words := mustAsm(t, PayloadBase, `
        MRS X0, COREID
        ADDI X0, X0, #100
        MOVZ X1, #0x1000
        STR X0, [X1]
        HLT #0
    `)
	if err := s.Boot(&BootImage{Words: words}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAllCores(1000); err != nil {
		t.Fatal(err)
	}
	// Core 3 ran last; its store (uncached: caches disabled) landed in DRAM.
	got := s.ReadDRAM(0x1000, 1)[0]
	if got != 103 {
		t.Fatalf("DRAM[0x1000] = %d, want 103 (core 3)", got)
	}
	for _, c := range s.Cores {
		if !c.CPU.Halted {
			t.Fatalf("core %d did not halt", c.ID)
		}
	}
}

func TestCachedExecutionFillsICache(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	// A straight-line NOP sled long enough to fill several i-cache lines.
	src := ""
	for i := 0; i < 256; i++ {
		src += "NOP\n"
	}
	src += "HLT #0\n"
	words := mustAsm(t, PayloadBase, src)
	if err := s.Boot(&BootImage{Words: words, EnableCaches: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunCore(0, 10_000); err != nil {
		t.Fatal(err)
	}
	if s.Cores[0].L1I.Stats().Misses == 0 {
		t.Fatal("i-cache saw no fills")
	}
	// The NOP encoding must be present in the i-cache data RAM.
	nop := make([]byte, 4)
	for i := range nop {
		nop[i] = byte(isa.NOPWord >> (8 * i))
	}
	found := 0
	for w := 0; w < s.Spec.L1I.Ways; w++ {
		found += len(analysis.FindPattern(s.Cores[0].L1I.DumpWay(w), nop))
	}
	if found < 200 {
		t.Fatalf("found %d NOP words in i-cache, want ≥200", found)
	}
}

func TestBootClobbersXRegsButNotVRegs(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	core := s.Cores[0]
	// Victim state: distinctive values in X and V registers.
	core.CPU.Regs.WriteX(5, 0x1111111111111111)
	core.CPU.Regs.WriteV(7, [2]uint64{0xAAAAAAAAAAAAAAAA, 0xFFFFFFFFFFFFFFFF})
	words := mustAsm(t, PayloadBase, "HLT #0\n")
	if err := s.Boot(&BootImage{Words: words}); err != nil {
		t.Fatal(err)
	}
	if core.CPU.Regs.ReadX(5) == 0x1111111111111111 {
		t.Fatal("boot firmware must clobber general-purpose registers")
	}
	v := core.CPU.Regs.ReadV(7)
	if v[0] != 0xAAAAAAAAAAAAAAAA || v[1] != 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("boot firmware must NOT touch vector registers, got %#x", v)
	}
}

func TestVideoCoreClobbersL2(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	// Victim software stores a secret that reaches L2 (store through L1,
	// then flush L1 so the line lands in L2).
	s.L2.SetEnabled(true)
	secret := uint64(0x5EC4E7C0DE)
	if _, err := s.L2.Access(0x2000, 8, true, secret, false); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.L2.RAMIndexData(0, 0x2000/8%(s.L2.WayBytes()/8)); v != secret {
		// The secret must be somewhere in L2; find it.
		found := false
		for w := 0; w < s.Spec.L2.Ways && !found; w++ {
			dump := s.L2.DumpWay(w)
			var sb [8]byte
			for i := range sb {
				sb[i] = byte(secret >> (8 * i))
			}
			if len(analysis.FindPattern(dump, sb[:])) > 0 {
				found = true
			}
		}
		if !found {
			t.Fatal("secret never reached L2")
		}
	}
	// Reboot: VideoCore must clobber the secret.
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	var sb [8]byte
	for i := range sb {
		sb[i] = byte(secret >> (8 * i))
	}
	for w := 0; w < s.Spec.L2.Ways; w++ {
		if len(analysis.FindPattern(s.L2.DumpWay(w), sb[:])) > 0 {
			t.Fatal("secret survived VideoCore L2 clobber")
		}
	}
}

func TestIRAMBootClobberRanges(t *testing.T) {
	s, _ := poweredSoC(t, IMX53(), Options{})
	// Fill the iRAM with a pattern via JTAG.
	pattern := make([]byte, s.Spec.IRAMBytes)
	for i := range pattern {
		pattern[i] = 0xA5
	}
	if err := s.JTAGWriteIRAM(0, pattern); err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	after, err := s.JTAGReadIRAM(0, s.Spec.IRAMBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Clobbered ranges must be mostly different, the rest identical.
	for _, r := range s.Spec.BootROMClobbers {
		hd := analysis.FractionalHD(pattern[r.Start:r.End], after[r.Start:r.End])
		if hd < 0.3 {
			t.Fatalf("clobber range %#x-%#x barely changed (HD %v)", r.Start, r.End, hd)
		}
	}
	// An untouched middle region must be intact.
	if analysis.FractionalHD(pattern[0x8000:0x10000], after[0x8000:0x10000]) != 0 {
		t.Fatal("untouched iRAM region was modified by boot")
	}
	// Total clobber fraction ≈5% (§6.2: ~95% available).
	total := 0
	for _, r := range s.Spec.BootROMClobbers {
		total += r.Len()
	}
	frac := float64(total) / float64(s.Spec.IRAMBytes)
	if frac < 0.03 || frac > 0.07 {
		t.Fatalf("clobber fraction = %v, want ≈0.05", frac)
	}
}

func TestJTAGOnlyOnEquippedDevices(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	if _, err := s.JTAGReadIRAM(0, 16); !errors.Is(err, ErrNoJTAG) {
		t.Fatalf("BCM2711 JTAG read = %v, want ErrNoJTAG", err)
	}
}

func TestRAMIndexPayloadDumpsDCache(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	// Victim: fill a d-cache line with a secret via a cached store.
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	victim := s.Cores[0]
	victim.L1D.InvalidateAll()
	victim.L1D.SetEnabled(true)
	if _, err := victim.L1D.Access(0x3000, 8, true, 0xFEEDFACECAFEBEEF, false); err != nil {
		t.Fatal(err)
	}
	// Attacker payload: sweep way 0 and way 1 of set (0x3000/64)%256=192,
	// word 0 of the line, storing results to DRAM at 0x2000.
	set := (0x3000 / 64) % 256
	wordIdx := set * 8 // 8 words per 64B line
	src := fmt.Sprintf(`
        LDIMM X0, #%#x          ; RAMINDEX request: L1D data way 0
        MSR RAMINDEX, X0
        DSB
        ISB
        MRS X1, RAMDATA0
        MOVZ X2, #0x2000
        STR X1, [X2]
        LDIMM X0, #%#x          ; way 1
        MSR RAMINDEX, X0
        DSB
        ISB
        MRS X1, RAMDATA0
        STR X1, [X2, #8]
        HLT #0
    `, isa.RAMIndexRequest(isa.RAMIDL1DData, 0, wordIdx),
		isa.RAMIndexRequest(isa.RAMIDL1DData, 1, wordIdx))
	words := mustAsm(t, PayloadBase, src)
	if err := s.Boot(&BootImage{Words: words}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunCore(0, 1000); err != nil {
		t.Fatal(err)
	}
	dump := s.ReadDRAM(0x2000, 16)
	var w0, w1 uint64
	for i := 0; i < 8; i++ {
		w0 |= uint64(dump[i]) << (8 * i)
		w1 |= uint64(dump[8+i]) << (8 * i)
	}
	if w0 != 0xFEEDFACECAFEBEEF && w1 != 0xFEEDFACECAFEBEEF {
		t.Fatalf("payload did not extract the secret: w0=%#x w1=%#x", w0, w1)
	}
}

func TestRAMIndexRequiresEL3(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	if _, fault := s.RAMIndexRead(0, isa.RAMIndexRequest(isa.RAMIDL1DData, 0, 0), 1); !fault {
		t.Fatal("RAMINDEX at EL1 must fault")
	}
	if _, fault := s.RAMIndexRead(0, isa.RAMIndexRequest(isa.RAMIDL1DData, 0, 0), 3); fault {
		t.Fatal("RAMINDEX at EL3 must succeed")
	}
}

func TestTrustZoneBlocksSecureLines(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{TrustZone: true})
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	// Victim (secure world) allocates a secret line.
	victim := s.Cores[0]
	victim.L1D.InvalidateAll()
	victim.L1D.SetEnabled(true)
	if _, err := victim.L1D.Access(0x0, 8, true, 0x5EC2E7, true); err != nil {
		t.Fatal(err)
	}
	// Attacker boots an unsigned payload: pinned non-secure.
	words := mustAsm(t, PayloadBase, "HLT #0\n")
	if err := s.Boot(&BootImage{Words: words}); err != nil {
		t.Fatal(err)
	}
	if s.Cores[0].CPU.Secure() {
		t.Fatal("unsigned payload must be non-secure under TrustZone")
	}
	if _, fault := s.RAMIndexRead(0, isa.RAMIndexRequest(isa.RAMIDL1DData, 0, 0), 3); !fault {
		t.Fatal("RAMINDEX to a secure line must fault for a non-secure core")
	}
	// A non-secure line elsewhere stays readable.
	if _, err := victim.L1D.Access(0x40, 8, true, 0x99, false); err != nil {
		t.Fatal(err)
	}
	if _, fault := s.RAMIndexRead(0, isa.RAMIndexRequest(isa.RAMIDL1DData, 0, 8), 3); fault {
		t.Fatal("non-secure line should be readable")
	}
}

func TestTrustZoneSecureWorldNeedsSignature(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{TrustZone: true})
	words := mustAsm(t, PayloadBase, "HLT #0\n")
	img := &BootImage{Words: words, TrustedWorld: true}
	if err := s.Boot(img); !errors.Is(err, ErrUnsignedImage) {
		t.Fatalf("unsigned secure-world boot = %v, want ErrUnsignedImage", err)
	}
	img.Signature = s.SignImage(img)
	if err := s.Boot(img); err != nil {
		t.Fatalf("signed secure-world boot failed: %v", err)
	}
	if !s.Cores[0].CPU.Secure() {
		t.Fatal("signed trusted image should run secure")
	}
}

func TestAuthenticatedBootRejectsUnsigned(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{AuthenticatedBoot: true})
	words := mustAsm(t, PayloadBase, "HLT #0\n")
	if err := s.Boot(&BootImage{Words: words}); !errors.Is(err, ErrUnsignedImage) {
		t.Fatalf("unsigned boot = %v", err)
	}
	img := &BootImage{Words: words}
	img.Signature = s.SignImage(img)
	if err := s.Boot(img); err != nil {
		t.Fatal(err)
	}
}

func TestMBISTResetErasesSRAM(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{MBISTReset: true})
	core := s.Cores[0]
	core.L1D.Arrays()[0].Fill(0xEE)
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	dump := core.L1D.DumpWay(0)
	for i, b := range dump {
		if b != 0 {
			t.Fatalf("byte %d = %#x after MBIST reset", i, b)
		}
	}
}

func TestPowerToggleResetErasesDespiteHeldPin(t *testing.T) {
	s, env := poweredSoC(t, BCM2711(), Options{PowerToggleReset: true})
	core := s.Cores[0]
	core.L1D.Arrays()[0].Fill(0xEE)
	before := core.L1D.DumpWay(0)
	_ = env
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	after := core.L1D.DumpWay(0)
	// Room-temperature 1 ms toggle: contents must be gone (≈50% HD).
	if hd := analysis.FractionalHD(before, after); hd < 0.4 {
		t.Fatalf("power-toggle reset left data intact (HD %v)", hd)
	}
}

func TestOrderlyShutdownPurges(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	core := s.Cores[0]
	core.L1D.Arrays()[0].Fill(0xEE)
	core.RegFile.WriteV(3, [2]uint64{0xDEAD, 0xBEEF})
	s.OrderlyShutdown()
	for _, b := range core.L1D.DumpWay(0) {
		if b != 0 {
			t.Fatal("d-cache not purged")
		}
	}
	if v := core.RegFile.ReadV(3); v[0] != 0 || v[1] != 0 {
		t.Fatal("registers not purged")
	}
}

// The SoC-level Volt Boot mechanism: hold the core domain while the rest
// of the chip power-cycles; L1 and registers retain, L2 and DRAM decay.
func TestDomainSeparatedRetention(t *testing.T) {
	env := sim.NewEnv()
	s, err := New(env, BCM2711(), Options{}, 0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	corePSU := power.NewBenchSupply("core", s.Spec.CoreVolts, 10)
	memPSU := power.NewBenchSupply("mem", s.Spec.MemVolts, 10)
	corePSU.AttachTo(s.CoreDom)
	memPSU.AttachTo(s.MemDom)

	core := s.Cores[0]
	core.L1D.Arrays()[0].Fill(0x5C)
	l1Before := core.L1D.DumpWay(0)
	s.L2.Arrays()[0].Fill(0x5C)
	l2Before := s.L2.DumpWay(0)

	// Power cycle everything EXCEPT the core domain.
	memPSU.Detach()
	env.Advance(500 * sim.Millisecond)
	memPSU.AttachTo(s.MemDom)

	if hd := analysis.FractionalHD(l1Before, core.L1D.DumpWay(0)); hd != 0 {
		t.Fatalf("held core domain lost L1 data (HD %v)", hd)
	}
	if hd := analysis.FractionalHD(l2Before, s.L2.DumpWay(0)); hd < 0.4 {
		t.Fatalf("unpowered L2 retained data (HD %v)", hd)
	}
}

func TestUnmappedAccessErrors(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	if _, err := s.Load(0, 0xDEAD00000, 8); err == nil {
		t.Fatal("unmapped load should error")
	}
	if err := s.Store(0, uint64(s.Spec.DRAMBytes), 8, 1); err == nil {
		t.Fatal("store past DRAM should error")
	}
}

func TestROMIsReadOnly(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	if _, err := s.Load(0, ROMBase, 8); err != nil {
		t.Fatalf("ROM read failed: %v", err)
	}
	if err := s.Store(0, ROMBase, 8, 1); err == nil {
		t.Fatal("ROM write should error")
	}
}

func TestIRAMCPUAccess(t *testing.T) {
	s, _ := poweredSoC(t, IMX53(), Options{})
	base := s.Spec.IRAMBase
	if err := s.Store(0, base+0x100, 8, 0xABCD); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load(0, base+0x100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Fatalf("iRAM readback = %#x", v)
	}
	// JTAG sees the same bytes (coherent, uncached).
	b, err := s.JTAGReadIRAM(0x100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xCD || b[1] != 0xAB {
		t.Fatalf("JTAG view = %v", b)
	}
}

func TestSignImageDependsOnContent(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{})
	a := &BootImage{Words: []uint32{1, 2, 3}}
	b := &BootImage{Words: []uint32{1, 2, 4}}
	if s.SignImage(a) == s.SignImage(b) {
		t.Fatal("signatures must depend on image contents")
	}
}

func BenchmarkBootCycle(b *testing.B) {
	s, _ := poweredSoC(b, BCM2711(), Options{})
	words := mustAsm(b, PayloadBase, "HLT #0\n")
	img := &BootImage{Words: words}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Boot(img); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenericMCUSRAMAttack: the microcontroller end of §5.2.1/§6.2 —
// SRAM-as-main-memory behind its own domain, attacked through the SWD
// window after an internal boot that clobbers the first 2KB.
func TestGenericMCUSRAMAttack(t *testing.T) {
	s, env := poweredSoC(t, GenericMCU(), Options{})
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	// The running firmware's state fills the SRAM.
	state := make([]byte, s.Spec.IRAMBytes)
	for i := range state {
		state[i] = byte(i*13 + 7)
	}
	if err := s.JTAGWriteIRAM(0, state); err != nil {
		t.Fatal(err)
	}
	// Power cycle with the SRAM domain held by test supplies (attached in
	// poweredSoC) while time passes, then the internal ROM reboots.
	env.Advance(2 * sim.Second)
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.JTAGReadIRAM(0, s.Spec.IRAMBytes)
	if err != nil {
		t.Fatal(err)
	}
	// First 2KB clobbered by the boot ROM...
	if hd := analysis.FractionalHD(state[:2048], got[:2048]); hd < 0.3 {
		t.Fatalf("boot clobber region barely changed: HD %v", hd)
	}
	// ...everything else intact: ≈97% of main memory available.
	if hd := analysis.FractionalHD(state[2048:], got[2048:]); hd != 0 {
		t.Fatalf("retained SRAM corrupted: HD %v", hd)
	}
	avail := float64(s.Spec.IRAMBytes-2048) / float64(s.Spec.IRAMBytes)
	if avail < 0.96 {
		t.Fatalf("available fraction = %v", avail)
	}
}

// TestTCGResetSkipsWipeAfterOrderlyShutdown: the TCG mitigation only
// wipes after unexpected resets; a clean shutdown marks the next boot as
// trusted.
func TestTCGResetSkipsWipeAfterOrderlyShutdown(t *testing.T) {
	s, _ := poweredSoC(t, BCM2711(), Options{TCGReset: true})
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	s.WriteDRAM(0x1000, []byte("persist across clean reboot"))
	// Flush the shared L2 so the data reaches physical DRAM — dirty L2
	// lines would otherwise be destroyed by the VideoCore's boot-time
	// clobber before ever being written back.
	if err := s.L2.CleanInvalidateAll(); err != nil {
		t.Fatal(err)
	}
	s.OrderlyShutdown()
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	if got := string(s.ReadDRAM(0x1000, 27)); got != "persist across clean reboot" {
		t.Fatalf("clean-shutdown data wiped: %q", got)
	}
	// But a second boot with no shutdown in between wipes.
	s.WriteDRAM(0x1000, []byte("gone after forced reboot!!!"))
	if err := s.L2.CleanInvalidateAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(nil); err != nil {
		t.Fatal(err)
	}
	if got := string(s.ReadDRAM(0x1000, 27)); got == "gone after forced reboot!!!" {
		t.Fatal("forced-reboot data survived the TCG wipe")
	}
}
