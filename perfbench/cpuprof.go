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

// moduleOf maps a Go package path to the repository module its CPU time is
// charged to. Helper packages go to the module that uses them; the root
// dex package is the public face of core. Packages outside the repository
// return "".
func moduleOf(pkg string) string {
	switch pkg {
	case "main", "dex/perfbench":
		return "bench"
	case "dex":
		return "core"
	}
	mod, ok := strings.CutPrefix(pkg, "dex/internal/")
	if !ok {
		return ""
	}
	switch mod {
	case "mem", "futex", "radix":
		return "core"
	case "graph", "textgen":
		return "apps"
	case "profile":
		return "dsm"
	case "exper", "bench":
		return "bench"
	}
	return mod
}

// cpuModules lists the modules cpu_share reports, in output order;
// "runtime" collects samples with no repository frame on the stack
// (garbage collection, the Go scheduler's own loop).
var cpuModules = []string{"apps", "serve", "load", "core", "dsm", "fabric", "sim", "obs", "chaos", "bench", "runtime"}

// packageOf extracts the package path from a symbol name such as
// "dex/internal/sim.(*Task).yield" or "dex/internal/sim.(*Mailbox[...]).Recv".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// cpuShares decodes a pprof CPU profile (gzipped profile.proto, as written
// by runtime/pprof) and returns each module's share of sampled CPU time.
// Each sample is charged to the innermost repository frame on its stack,
// so runtime work a layer calls into (channel operations under sim.Task,
// map and allocation helpers) counts as that layer.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcModule := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx < uint64(len(p.strings)) {
			funcModule[id] = moduleOf(packageOf(p.strings[nameIdx]))
		}
	}
	byModule := make(map[string]float64)
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		weight := float64(s.values[len(s.values)-1])
		mod := "runtime"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locFuncs[loc] {
				if m := funcModule[fn]; m != "" {
					mod = m
					break stack
				}
			}
		}
		byModule[mod] += weight
		total += weight
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = byModule[m] / total
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

// profile holds the parts of profile.proto cpuShares needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]uint64   // function id → string table index
	strings  []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers of profile.proto.
const (
	profileSample      = 2
	profileLocation    = 4
	profileFunction    = 5
	profileStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]uint64)}
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profileSample:
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case sampleLocationID:
					return appendVarints(&s.locations, v, b)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profileFunction:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profileStringTable:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field that arrived either as one
// varint (v) or packed (b).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("cpu profile: malformed protobuf")

// eachField walks the fields of one protobuf message, calling fn with the
// value of varint fields or the bytes of length-delimited ones (b is nil
// for varints). Fixed-width fields are skipped.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errBadProto
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(data) < size {
				return errBadProto
			}
			data = data[size:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errBadProto
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
