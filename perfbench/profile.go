package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The decoder below reads
// only the fields layer attribution needs: samples (location ids and
// values), locations (their inlined line stacks), functions (names) and
// the string table.

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []profSample
	locLines    map[uint64][]uint64 // location id → function ids, innermost first
	funcName    map[uint64]int64    // function id → string-table index
	strs        []string
}

// stack returns the function names of one sample, leaf first, with
// inlined frames expanded innermost first.
func (p *profile) stack(s *profSample) []string {
	var out []string
	for _, id := range s.locs {
		for _, fid := range p.locLines[id] {
			out = append(out, p.str(p.funcName[fid]))
		}
	}
	return out
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// cpuValueIndex picks the sample value that holds CPU time ("cpu"
// nanoseconds), falling back to the last value.
func (p *profile) cpuValueIndex() int {
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			return i
		}
	}
	return len(p.sampleTypes) - 1
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2: // sample_type: ValueType{type=1, unit=2}
			return eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case num == 2 && wire == 2: // sample: location_id=1, value=2
			var s profSample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, pb)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, w, v, pb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fids []uint64
			err := eachField(b, func(n, w int, v uint64, lb []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2:
					return eachField(lb, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fids
			return err
		case num == 5 && wire == 2: // function: id=1, name=2
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.sampleTypes) == 0 {
		return nil, errors.New("profile: no sample types")
	}
	return p, nil
}

// appendUints appends a repeated uint64 field, packed (wire type 2) or
// not (wire type 0).
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields arrive in v, length-delimited ones in b; fixed-width fields
// are skipped.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a Go symbol name such as
// "repro/internal/sram.(*Array).Fill" or "runtime.memmove".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// selfBuckets are the layer buckets of the self-time breakdown, in
// report order. Every sample lands in exactly one; "other" takes the
// rest, so the shares sum to 100.
var selfBuckets = []string{"sram", "xrand", "dram", "cache", "isa", "soc", "sca", "runtime", "service", "other"}

// layerOf returns the bucket of a function that belongs to a layer, or
// "" for standard-library code outside the runtime.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if mod, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch mod {
		case "sram", "xrand", "dram", "cache", "isa", "soc", "sca":
			return mod
		case "api", "campaign", "store", "fabric":
			return "service"
		}
		return "other"
	}
	switch {
	case pkg == "internal/runtime/syscall":
		return "" // a system call is I/O done for its caller
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net/http", strings.HasPrefix(pkg, "net/http/"), pkg == "encoding/json":
		return "service"
	case pkg == "main", strings.HasPrefix(pkg, "repro/"):
		return "other" // this benchmark and the commands
	}
	return ""
}

// bucketOf charges one sample's stack (leaf first) to a bucket: the
// innermost frame that belongs to a layer decides, so standard-library
// code (math, syscalls, hashing) counts toward the layer that called
// it, while runtime frames (GC, scheduler, allocation, memmove) count
// as runtime.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if b := layerOf(fn); b != "" {
			return b
		}
	}
	return "other"
}

// cumTargets are the public entry points whose cumulative share the
// traced run reports, keyed by metric name prefix.
var cumTargets = []struct{ metric, fn string }{
	{"board.Board.ConnectMain", "repro/internal/board.(*Board).ConnectMain"},
	{"soc.SoC.RestoreSnapshot", "repro/internal/soc.(*SoC).RestoreSnapshot"},
	{"isa.CPU.Step", "repro/internal/isa.(*CPU).Step"},
	{"cache.Cache.Access", "repro/internal/cache.(*Cache).Access"},
	{"sca.PearsonAcc.Add", "repro/internal/sca.(*PearsonAcc).Add"},
}

// isGC reports whether a frame belongs to the garbage collector: the
// background mark workers, mutator assists and the sweeper.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.markroot" || fn == "runtime.scanobject"
}

// layerShares attributes a profile's CPU time: self-time percentage per
// bucket (summing to 100) and the cumulative percentage of each
// cumTargets entry plus "runtime.gc". total is the profiled CPU time in
// seconds.
func layerShares(p *profile) (self, cum map[string]float64, total float64) {
	vi := p.cpuValueIndex()
	self = map[string]float64{}
	cum = map[string]float64{}
	for _, b := range selfBuckets {
		self[b] = 0
	}
	for _, t := range cumTargets {
		cum[t.metric] = 0
	}
	cum["runtime.gc"] = 0
	var sum float64
	for i := range p.samples {
		s := &p.samples[i]
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		st := p.stack(s)
		if len(st) == 0 {
			continue
		}
		sum += v
		self[bucketOf(st)] += v
		for _, t := range cumTargets {
			for _, fn := range st {
				if fn == t.fn {
					cum[t.metric] += v
					break
				}
			}
		}
		for _, fn := range st {
			if isGC(fn) {
				cum["runtime.gc"] += v
				break
			}
		}
	}
	if sum == 0 {
		return self, cum, 0
	}
	for k := range self {
		self[k] *= 100 / sum
	}
	for k := range cum {
		cum[k] *= 100 / sum
	}
	return self, cum, sum / 1e9
}
