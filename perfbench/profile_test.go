package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs []uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(field, inner.b)
}

// buildProfile encodes a CPU profile whose samples have the given
// stacks (leaf first) and CPU nanoseconds. A stack entry may name
// several functions separated by "|": one location with inlined frames,
// innermost first.
func buildProfile(stacks [][]string, ns []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var out pb
	for _, t := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.uint(1, strIdx(t[0]))
		vt.uint(2, strIdx(t[1]))
		out.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	var fnMsgs, locMsgs [][]byte
	nextLoc := uint64(1)
	for i, st := range stacks {
		var locs []uint64
		for _, frame := range st {
			var loc pb
			loc.uint(1, nextLoc)
			for _, fn := range splitBar(frame) {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pb
					f.uint(1, id)
					f.uint(2, strIdx(fn))
					fnMsgs = append(fnMsgs, f.b)
				}
				var line pb
				line.uint(1, id)
				loc.bytes(4, line.b)
			}
			locMsgs = append(locMsgs, loc.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var s pb
		s.packed(1, locs)
		s.packed(2, []uint64{1, uint64(ns[i])})
		out.bytes(2, s.b)
	}
	for _, l := range locMsgs {
		out.bytes(4, l)
	}
	for _, f := range fnMsgs {
		out.bytes(5, f)
	}
	for _, s := range strs {
		out.bytes(6, []byte(s))
	}
	return out.b
}

func splitBar(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '|' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/sram.(*Array).Fill":      "repro/internal/sram",
		"repro/internal/sram.mode2Batch64.func1": "repro/internal/sram",
		"runtime.memmove":                        "runtime",
		"net/http.(*conn).serve":                 "net/http",
		"internal/runtime/syscall.Syscall6":      "internal/runtime/syscall",
		"main.(*serviceFleet).submit":            "main",
		"encoding/json.(*decodeState).object":    "encoding/json",
		"type:.eq.[2]interface {}":               "type:",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestLayerShares checks the profile-to-layer mapping on a synthetic
// profile: the innermost layer frame takes a sample, standard-library
// code is charged to its caller, runtime frames to runtime, and
// anything unmapped to other, with the shares summing to 100.
func TestLayerShares(t *testing.T) {
	stacks := [][]string{
		// math inlined into an sram kernel: charged to sram.
		{"math.Exp|repro/internal/sram.(*Array).powerUpAllWords", "repro/internal/board.(*Board).ConnectMain"},
		// allocation under a cache access: runtime, and cache.Access cum.
		{"runtime.mallocgc", "repro/internal/cache.(*Cache).Access", "repro/internal/isa.(*CPU).Step"},
		// a store write's system call: service.
		{"internal/runtime/syscall.Syscall6", "syscall.write", "os.(*File).Write", "repro/internal/store.(*Store).Put"},
		// the HTTP server with no repository frame: service.
		{"bufio.(*Reader).Read", "net/http.(*conn).serve", "runtime.goexit"},
		// an unmapped repository module: other.
		{"sort.Slice", "repro/internal/experiments.Table4"},
		// the benchmark's own code: other.
		{"crypto/sha256.block", "main.sha256Hex"},
		// no layer anywhere: other.
		{"strings.Index"},
		// the garbage collector: runtime, and runtime.gc cum.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
	}
	ns := []int64{400, 100, 50, 50, 100, 100, 100, 100}
	p, err := parseProfile(buildProfile(stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	self, cum, total := layerShares(p)
	if !near(total, 1000e-9) {
		t.Errorf("total = %v s, want 1e-6", total)
	}
	want := map[string]float64{"sram": 40, "runtime": 20, "service": 10, "other": 30}
	sum := 0.0
	for _, b := range selfBuckets {
		sum += self[b]
		if !near(self[b], want[b]) {
			t.Errorf("%s.self_pct = %v, want %v", b, self[b], want[b])
		}
	}
	if !near(sum, 100) {
		t.Errorf("self shares sum to %v, want 100", sum)
	}
	for k, v := range map[string]float64{
		"board.Board.ConnectMain": 40, "cache.Cache.Access": 10, "isa.CPU.Step": 10,
		"runtime.gc": 10, "soc.SoC.RestoreSnapshot": 0, "sca.PearsonAcc.Add": 0,
	} {
		if !near(cum[k], v) {
			t.Errorf("%s.cum_pct = %v, want %v", k, cum[k], v)
		}
	}
}

// TestRealProfile parses a profile written by runtime/pprof.
func TestRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	self, _, total := layerShares(p)
	if total <= 0 {
		t.Skipf("no CPU samples collected (x=%v)", x)
	}
	sum := 0.0
	for _, b := range selfBuckets {
		sum += self[b]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("self shares sum to %v, want 100", sum)
	}
}
