package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is folded by the package of each sample's leaf frame into
// the layers below. runtime/pprof writes a gzipped profile.proto; the
// decoder here reads only the fields the fold needs, so the benchmark stays
// free of dependencies.

// cpuLayers are the cpu.* shares every traced run reports, in order.
var cpuLayers = []string{
	"des", "wormhole", "topo", "routing", "mcsim", "system", "analytic",
	"serve", "sweep", "json", "nethttp", "gc", "runtime", "other",
}

// packageLayer maps a leaf frame's package to its layer; packages not
// listed fold to "other", the runtime's to "runtime" or "gc".
var packageLayer = map[string]string{
	"mcnet/internal/des":      "des",
	"mcnet/internal/wormhole": "wormhole",
	"mcnet/internal/topo":     "topo",
	"mcnet/internal/routing":  "routing",
	"mcnet/internal/tree":     "routing",
	"mcnet/internal/mcsim":    "mcsim",
	"mcnet/internal/system":   "system",
	"mcnet/internal/analytic": "analytic",
	"mcnet/internal/serve":    "serve",
	"mcnet/internal/sweep":    "sweep",
	"encoding/json":           "json",
	"net/http":                "nethttp",
	"net/textproto":           "nethttp",
	"net":                     "nethttp",
	"internal/poll":           "nethttp",
	"syscall":                 "nethttp",
	"bufio":                   "nethttp",
}

// gcRoots are frames that, anywhere on a stack whose leaf is in the
// runtime, mark the sample as garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.GC", "runtime.gcStart", "runtime.markroot",
}

// funcPackage returns the import path of a symbol such as
// "mcnet/internal/des.(*Scheduler).pop" or "encoding/json.Marshal".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation arguments may hold slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf folds one sample, given its frames leaf first.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := funcPackage(stack[0])
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") {
		for _, f := range stack {
			for _, root := range gcRoots {
				if f == root {
					return "gc"
				}
			}
		}
		return "runtime"
	}
	return "other"
}

// foldProfile returns each layer's share of the sampled CPU time in a
// gzipped profile.proto, and the number of samples.
func foldProfile(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		v := float64(s.value)
		shares[layerOf(stack)] += v
		total += v
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, len(p.samples), nil
}

type sample struct {
	locs  []uint64
	value int64 // the last value: CPU nanoseconds for a CPU profile
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, inlined callee first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

var errProto = errors.New("profile: malformed protobuf")

// decodeProfile reads the Profile message: sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					var err error
					s.locs, err = appendPacked(s.locs, v, sub)
					return err
				case 2:
					vals, err := appendPacked(nil, v, sub)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id = 1}
					return eachField(sub, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// eachField walks a protobuf message, passing each field's number and its
// varint value or length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrives either packed
// (sub holds the varints) or as a single unpacked value v.
func appendPacked(dst []uint64, v uint64, sub []byte) ([]uint64, error) {
	if sub == nil {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return dst, errProto
		}
		dst, sub = append(dst, x), sub[n:]
	}
	return dst, nil
}
