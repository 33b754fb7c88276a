// Package fold reads a CPU profile written by runtime/pprof and folds
// its samples by package into the simulator's layers, so a benchmark can
// report which layer the host CPU time went to.
//
// Each sample is charged to the function of its innermost frame (the
// leaf of the innermost inlined call), which is pprof's "flat" view:
// time a simulated thread spends parking on a channel lands in the Go
// runtime, not in the engine that called it. The profile format is the
// gzip-compressed protocol buffer described in
// github.com/google/pprof/proto/profile.proto; only the fields needed to
// map samples to function names are decoded.
package fold

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Layers lists the layer names Shares reports, in report order. Every
// package maps to exactly one of them; "other" collects the standard
// library outside the runtime and the benchmark itself.
var Layers = []string{
	"sim", "mach", "phys", "core", "kernel", "apps", "uma", "span", "exp", "runtime", "other",
}

// LayerOf maps a package path to its layer.
func LayerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "platinum/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		switch name {
		case "sim", "mach", "phys", "core", "kernel", "apps", "uma", "span", "exp":
			return name
		case "procset":
			return "core" // processor sets exist for the protocol's directory masks
		case "vm":
			return "kernel"
		case "baseline":
			return "apps"
		case "hist", "timeseries", "trace", "metrics":
			return "span" // telemetry and reporting
		case "model":
			return "exp"
		}
		return "other"
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "sync", pkg == "sync/atomic", pkg == "internal/sync":
		return "runtime"
	}
	return "other"
}

// packageOf extracts the package path from a fully qualified Go
// function name such as "platinum/internal/sim.(*Engine).Run" or
// "runtime.chansend1".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// ByPackage decodes a (possibly gzip-compressed) pprof CPU profile and
// returns the flat CPU nanoseconds of each package.
func ByPackage(profile []byte) (map[string]int64, error) {
	p, err := parse(profile)
	if err != nil {
		return nil, err
	}
	byPkg := map[string]int64{}
	for _, s := range p.samples {
		pkg := "?"
		if len(s.locs) > 0 {
			pkg = packageOf(p.leafFunction(s.locs[0]))
		}
		byPkg[pkg] += s.value
	}
	return byPkg, nil
}

// Shares folds per-package CPU time into each layer's share of the
// total in percent, keyed by the names in Layers (every key present).
func Shares(byPkg map[string]int64) map[string]float64 {
	byLayer := make(map[string]int64, len(Layers))
	var total int64
	for pkg, ns := range byPkg {
		byLayer[LayerOf(pkg)] += ns
		total += ns
	}
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		out[l] = 0
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		}
	}
	return out
}

// Top formats the n packages with the most CPU time as
// "share% layer package" lines, busiest first.
func Top(byPkg map[string]int64, n int) []string {
	var total int64
	pkgs := make([]string, 0, len(byPkg))
	for k, ns := range byPkg {
		pkgs = append(pkgs, k)
		total += ns
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if byPkg[pkgs[i]] != byPkg[pkgs[j]] {
			return byPkg[pkgs[i]] > byPkg[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	if len(pkgs) > n {
		pkgs = pkgs[:n]
	}
	lines := make([]string, len(pkgs))
	for i, k := range pkgs {
		lines[i] = fmt.Sprintf("%5.1f%% %-8s %s", 100*float64(byPkg[k])/float64(total), LayerOf(k), k)
	}
	return lines
}

// profile is the decoded subset of a pprof Profile message.
type profile struct {
	samples  []sample
	locLeaf  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64
	value int64
}

func (p *profile) leafFunction(loc uint64) string {
	idx, ok := p.funcName[p.locLeaf[loc]]
	if !ok || idx < 0 || int(idx) >= len(p.strings) {
		return "?"
	}
	return p.strings[idx]
}

// parse decodes a (possibly gzip-compressed) pprof profile.
func parse(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("fold: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("fold: decompressing profile: %w", err)
		}
	}
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var raws []rawSample
	var sampleTypes int
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			sampleTypes++
		case 2: // sample
			var rs rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					rs.locs = appendVarints(rs.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						rs.values = append(rs.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			raws = append(raws, rs)
		case 4: // location
			var id, leaf uint64
			haveLine := false
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLeaf[id] = leaf
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
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
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sampleTypes == 0 {
		return nil, errors.New("fold: not a pprof profile (no sample types)")
	}
	// A CPU profile's values are [samples/count, cpu/nanoseconds]; the
	// last one is the time.
	slot := sampleTypes - 1
	for _, rs := range raws {
		if slot >= len(rs.values) {
			return nil, errors.New("fold: sample has fewer values than sample types")
		}
		p.samples = append(p.samples, sample{locs: rs.locs, value: rs.values[slot]})
	}
	return p, nil
}

// appendVarints appends a repeated varint field, which the encoder may
// write packed (one length-delimited run) or one value per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// fields walks a protocol buffer message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("fold: truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("fold: truncated varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("fold: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("fold: truncated length-delimited field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("fold: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("fold: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
