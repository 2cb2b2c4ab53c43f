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

// cpuByPackage reads a runtime/pprof CPU profile and charges each
// sample's CPU time to the nearest frame, leaf first, that belongs to
// an asymnvm/internal package or to the benchmark itself ("bench").
// Runtime and standard-library frames are thus charged to their caller;
// a sample with no such frame at all is charged to "runtime".
//
// It decodes only the parts of the profile.proto format it needs, so
// the benchmark depends on the standard library alone.
func cpuByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		types    [][]byte // sample_type messages
		samples  [][]byte
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			types = append(types, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU time value is the sample type named "cpu" (nanoseconds).
	valIdx := len(types) - 1
	for i, t := range types {
		_ = eachField(t, func(n, _ int, v uint64, _ []byte) error {
			if n == 1 && int(v) < len(strs) && strs[v] == "cpu" {
				valIdx = i
			}
			return nil
		})
	}
	pkgOf := map[uint64]string{} // function id -> package, "" if neither
	out := map[string]float64{}
	for _, s := range samples {
		var locs, vals []uint64
		err := eachField(s, func(n, wire int, v uint64, b []byte) error {
			var dst *[]uint64
			switch n {
			case 1:
				dst = &locs
			case 2:
				dst = &vals
			default:
				return nil
			}
			if wire == wireBytes {
				return eachPacked(b, func(x uint64) { *dst = append(*dst, x) })
			}
			*dst = append(*dst, v)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valIdx < 0 || valIdx >= len(vals) {
			continue
		}
		pkg := "runtime"
	frames:
		for _, loc := range locs {
			for _, fid := range locFuncs[loc] {
				p, ok := pkgOf[fid]
				if !ok {
					name := ""
					if si := funcName[fid]; si >= 0 && int(si) < len(strs) {
						name = strs[si]
					}
					p = packageOf(name)
					pkgOf[fid] = p
				}
				if p != "" {
					pkg = p
					break frames
				}
			}
		}
		out[pkg] += float64(vals[valIdx])
	}
	return out, nil
}

// packageOf maps a symbol to its charge package: the internal package
// name, "bench" for the benchmark's own code, or "" otherwise.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "asymnvm/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling f with the field number,
// wire type, varint value and length-delimited payload.
func eachField(b []byte, f func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := f(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked walks a packed repeated varint field.
func eachPacked(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		f(v)
		b = b[n:]
	}
	return nil
}
