package lint

import (
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce sync.Once
	moduleMod  *Module
	moduleErr  error
)

// loadRepoModule loads the real repository module once per test binary;
// type-checking the whole module against the source importer is the
// expensive step, so every module-level test shares it.
func loadRepoModule(t *testing.T) *Module {
	t.Helper()
	moduleOnce.Do(func() {
		root, _, err := FindModuleRoot(".")
		if err != nil {
			moduleErr = err
			return
		}
		moduleMod, moduleErr = LoadModule(root)
	})
	if moduleErr != nil {
		t.Fatalf("loading repo module: %v", moduleErr)
	}
	return moduleMod
}

// TestModuleClean is the gate the CI script relies on: the repository
// itself must produce zero non-baselined diagnostics under the default
// configuration. If this fails, either fix the violation or — for a
// deliberate, reviewed exception — add a //voltvet:ignore with a reason
// or a lint.baseline entry.
func TestModuleClean(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	diags := Run(mod, cfg, All())

	base, err := ParseBaseline(filepath.Join(mod.Root, "lint.baseline"))
	if err != nil {
		t.Fatalf("parsing lint.baseline: %v", err)
	}
	fresh, _ := base.Filter(diags)
	for _, d := range fresh {
		t.Errorf("%s: %s %s (%s)", d.Pos, d.ID, d.Message, d.Package)
	}
}

// TestDeterministicPackagesExist guards the configuration against
// bit-rot: every package named in DefaultConfig must actually exist in
// the module, so a rename cannot silently drop a package out of the
// deterministic set.
func TestDeterministicPackagesExist(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	for _, rel := range append(append([]string{}, cfg.DeterministicPkgs...), cfg.ServicePkgs...) {
		full := mod.Path + "/" + rel
		if mod.Packages[full] == nil {
			t.Errorf("config names package %s but it is not in the module", rel)
		}
	}
}

// TestDeterministicImportGraph pins the determinism boundary at the
// import-graph level: the deterministic set is import-closed. Every
// module-internal import of a deterministic package must itself be a
// deterministic package (never campaign/api/registry, never cmd/).
func TestDeterministicImportGraph(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	for _, pkg := range mod.Sorted {
		if !cfg.IsDeterministic(pkg.ImportPath) {
			continue
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, mod.Path+"/") {
				continue // stdlib
			}
			if !cfg.DeterministicImportAllowed(imp) {
				t.Errorf("determinism boundary broken: %s imports %s, which is outside the deterministic set",
					pkg.ImportPath, imp)
			}
		}
	}
}

// formerHotpath is the hot path as it stood when the hand-written
// per-function annotations were deleted: the 175 functions that carried
// //voltvet:hotpath then, which was exactly the closure the roots reach,
// less the three that left it when the simulator's event log was deleted
// and the six folded away when the snapshot dirty bitmaps became one
// dirty.Table and the cache's line-transfer fast paths became ReadLine
// and WriteLine themselves.
// It is frozen test data and a lower bound. The closure may grow as new
// code goes hot; it must never shrink below this list, because the
// allocation checks would then quietly stop covering a function the
// dynamic zero-alloc gates exercise.
var formerHotpath = []string{
	"(*repro/internal/cache.Cache).Access",
	"(*repro/internal/cache.Cache).CleanInvalidateVA",
	"(*repro/internal/cache.Cache).ContentGen",
	"(*repro/internal/cache.Cache).Enabled",
	"(*repro/internal/cache.Cache).InvalidateAll",
	"(*repro/internal/cache.Cache).Line",
	"(*repro/internal/cache.Cache).RAMIndexData",
	"(*repro/internal/cache.Cache).RAMIndexTag",
	"(*repro/internal/cache.Cache).ReadLine",
	"(*repro/internal/cache.Cache).ResidentWaySet",
	"(*repro/internal/cache.Cache).SecureLineAt",
	"(*repro/internal/cache.Cache).TouchFetchHit",
	"(*repro/internal/cache.Cache).WriteLine",
	"(*repro/internal/cache.Cache).ZeroLineVA",
	"(*repro/internal/cache.Cache).accessECC",
	"(*repro/internal/cache.Cache).bypass",
	"(*repro/internal/cache.Cache).fill",
	"(*repro/internal/cache.Cache).index",
	"(*repro/internal/cache.Cache).lineAddr",
	"(*repro/internal/cache.Cache).lookup",
	"(*repro/internal/cache.Cache).markDirty",
	"(*repro/internal/cache.Cache).memoStore",
	"(*repro/internal/cache.Cache).setTagEntry",
	"(*repro/internal/cache.Cache).tagEntry",
	"(*repro/internal/cache.Cache).touch",
	"(*repro/internal/cache.Cache).victim",
	"(*repro/internal/dram.Module).PowerOff",
	"(*repro/internal/dram.Module).PowerOn",
	"(*repro/internal/dram.Module).Powered",
	"(*repro/internal/dram.Module).ReadLine",
	"(*repro/internal/dram.Module).ReadUintN",
	"(*repro/internal/dram.Module).WriteLine",
	"(*repro/internal/dram.Module).WriteUintN",
	"(*repro/internal/dram.Module).check",
	"(*repro/internal/dram.Module).dropPending",
	"(*repro/internal/dram.Module).ensureRetentionTo",
	"(*repro/internal/dram.Module).groundByte",
	"(*repro/internal/dram.Module).markRange",
	"(*repro/internal/dram.Module).resolveAll",
	"(*repro/internal/dram.Module).resolveRange",
	"(*repro/internal/dram.Module).resolveSlow",
	"(*repro/internal/glitch.Glitcher).Disarm",
	"(*repro/internal/glitch.Glitcher).OnInstr",
	"(*repro/internal/glitch.Glitcher).closePulse",
	"(*repro/internal/glitch.Glitcher).triggerHit",
	"(*repro/internal/isa.CPU).ExecDecoded",
	"(*repro/internal/isa.CPU).Secure",
	"(*repro/internal/isa.CPU).SetV",
	"(*repro/internal/isa.CPU).SetX",
	"(*repro/internal/isa.CPU).Step",
	"(*repro/internal/isa.CPU).V",
	"(*repro/internal/isa.CPU).X",
	"(*repro/internal/isa.CPU).condHolds",
	"(*repro/internal/isa.CPU).exec",
	"(*repro/internal/isa.CPU).execFaulted",
	"(*repro/internal/isa.CPU).execProbed",
	"(*repro/internal/isa.CPU).readSysReg",
	"(*repro/internal/isa.CPU).setFlagsAdd",
	"(*repro/internal/isa.CPU).setFlagsSub",
	"(*repro/internal/isa.CPU).writeSysReg",
	"(*repro/internal/isa.PlainRegs).ReadV",
	"(*repro/internal/isa.PlainRegs).ReadX",
	"(*repro/internal/isa.PlainRegs).WriteV",
	"(*repro/internal/isa.PlainRegs).WriteX",
	"(*repro/internal/isa.TraceSink).BusAccess",
	"(*repro/internal/isa.TraceSink).RegWrite",
	"(*repro/internal/isa.TraceSink).Retire",
	"(*repro/internal/power.BenchSupply).OfferedVolts",
	"(*repro/internal/power.Domain).NominalVolts",
	"(*repro/internal/power.Domain).PulseDown",
	"(*repro/internal/power.Domain).PulseEnd",
	"(*repro/internal/power.Domain).Reresolve",
	"(*repro/internal/power.Domain).Volts",
	"(*repro/internal/power.Domain).setVolts",
	"(*repro/internal/power.Regulator).OfferedVolts",
	"(*repro/internal/sim.Env).Advance",
	"(*repro/internal/sim.Env).Now",
	"(*repro/internal/sim.Env).TemperatureK",
	"(*repro/internal/soc.RegFile).ReadV",
	"(*repro/internal/soc.RegFile).ReadX",
	"(*repro/internal/soc.RegFile).WriteV",
	"(*repro/internal/soc.RegFile).WriteX",
	"(*repro/internal/soc.SoC).Barrier",
	"(*repro/internal/soc.SoC).DCCIVAC",
	"(*repro/internal/soc.SoC).DCZVA",
	"(*repro/internal/soc.SoC).FetchDecoded",
	"(*repro/internal/soc.SoC).FetchInstr",
	"(*repro/internal/soc.SoC).ICIALLU",
	"(*repro/internal/soc.SoC).Load",
	"(*repro/internal/soc.SoC).Load128",
	"(*repro/internal/soc.SoC).RAMIndexRead",
	"(*repro/internal/soc.SoC).Store",
	"(*repro/internal/soc.SoC).Store128",
	"(*repro/internal/soc.SoC).access",
	"(*repro/internal/soc.SoC).inDRAM",
	"(*repro/internal/soc.SoC).inIRAM",
	"(*repro/internal/soc.SoC).inROM",
	"(*repro/internal/soc.SoC).installPredec",
	"(*repro/internal/soc.SoC).predecGen",
	"(*repro/internal/soc.SoC).runSuperblock",
	"(*repro/internal/soc.SoC).updateHistoryBuffers",
	"(*repro/internal/soc.dramLoad).SetRail",
	"(*repro/internal/soc.railWatcher).SetRail",
	"(*repro/internal/sram.Array).Gen",
	"(*repro/internal/sram.Array).PeekUint64",
	"(*repro/internal/sram.Array).Powered",
	"(*repro/internal/sram.Array).ReadBytesInto",
	"(*repro/internal/sram.Array).ReadUint64",
	"(*repro/internal/sram.Array).ReadUintN",
	"(*repro/internal/sram.Array).RestoreSnapshot",
	"(*repro/internal/sram.Array).SetRail",
	"(*repro/internal/sram.Array).SnapshotInto",
	"(*repro/internal/sram.Array).WriteBytes",
	"(*repro/internal/sram.Array).WriteUint64",
	"(*repro/internal/sram.Array).WriteUintN",
	"(*repro/internal/sram.Array).cellStatics",
	"(*repro/internal/sram.Array).checkAccess",
	"(*repro/internal/sram.Array).imprintPowerUp",
	"(*repro/internal/sram.Array).logDecayThreshold",
	"(*repro/internal/sram.Array).mode2Memo",
	"(*repro/internal/sram.Array).newBiasSampler",
	"(*repro/internal/sram.Array).powerUpAll",
	"(*repro/internal/sram.Array).powerUpAllScalar",
	"(*repro/internal/sram.Array).powerUpAllWords",
	"(*repro/internal/sram.Array).powerUpCellWith",
	"(*repro/internal/sram.Array).resolveDecay",
	"(*repro/internal/sram.Array).resolveDecayScalar",
	"(*repro/internal/sram.Array).resolveDecayWords",
	"(*repro/internal/sram.Array).setBit",
	"(*repro/internal/sram.Array).storeByte",
	"(*repro/internal/xrand.Rand).Bernoulli",
	"(*repro/internal/xrand.Rand).Bool",
	"(*repro/internal/xrand.Rand).FillNormFloat32",
	"(*repro/internal/xrand.Rand).Float64",
	"(*repro/internal/xrand.Rand).SetState",
	"(*repro/internal/xrand.Rand).Uint64",
	"(repro/internal/cache.Config).Sets",
	"(repro/internal/dram.RetentionModel).MedianRetentionAt",
	"(repro/internal/sram.RetentionModel).MedianRetentionAt",
	"repro/internal/cache.ECCDecodeWord",
	"repro/internal/cache.ECCEncodeWord",
	"repro/internal/cache.ParseTagEntry",
	"repro/internal/cache.eccDecodeLine",
	"repro/internal/cache.eccEncodeLine",
	"repro/internal/cache.eccMask",
	"repro/internal/dram.leastFloat32Satisfying",
	"repro/internal/glitch.FaultProbability",
	"repro/internal/glitch.decide",
	"repro/internal/isa.Decode",
	"repro/internal/isa.HasGPRDest",
	"repro/internal/isa.IsBranch",
	"repro/internal/isa.SysRegName",
	"repro/internal/isa.UnpackRAMIndex",
	"repro/internal/isa.accessSize",
	"repro/internal/isa.signExtend",
	"repro/internal/sim.CelsiusToKelvin",
	"repro/internal/sram.biasedThreshold",
	"repro/internal/sram.fieldSum16",
	"repro/internal/sram.ihNormal",
	"repro/internal/sram.maxSumWhere",
	"repro/internal/sram.minIntWhere",
	"repro/internal/sram.minSumWhere",
	"repro/internal/sram.mode2Batch64",
	"repro/internal/sram.mode2PhaseA",
	"repro/internal/xrand.Mix64",
	"repro/internal/xrand.SplitMix64",
}

// hotRoots are the closure seeds: the step loop, the superblock
// dispatcher and the SRAM snapshot/restore pair.
var hotRoots = []string{
	"(*repro/internal/isa.CPU).Step",
	"(*repro/internal/soc.SoC).runSuperblock",
	"(*repro/internal/sram.Array).RestoreSnapshot",
	"(*repro/internal/sram.Array).SnapshotInto",
}

// TestHotpathClosureCoversFormerChain proves the allocation checks cannot
// narrow: the roots are exactly hotRoots and the inferred closure
// is a superset of formerHotpath. A failure means closure inference
// lost a path — a broken call-graph edge or a deleted root — not that
// the pin is out of date.
func TestHotpathClosureCoversFormerChain(t *testing.T) {
	mod := loadRepoModule(t)
	cfg := DefaultConfig()
	cfg.ModulePath = mod.Path
	hp := InferHotPath(mod, cfg)

	if !slices.Equal(hp.Roots, hotRoots) {
		t.Errorf("hot-path roots = %v, want %v", hp.Roots, hotRoots)
	}
	for _, name := range formerHotpath {
		if _, ok := hp.Closure[name]; !ok {
			t.Errorf("formerly annotated hot-path function %s is not in the inferred closure (roots %v)", name, hp.Roots)
		}
	}
}
