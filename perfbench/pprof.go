package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A CPU profile (profile.proto, gzipped) is decoded here with a minimal
// protobuf reader, and every sample's CPU time is assigned to one bucket
// by the functions on its call path (leaf first). The rules are ordered;
// the first that matches wins, and "other" takes what none matches, so
// the buckets always sum to the profile's total. Most rules match a
// frame anywhere on the path ("under"); the package rules at the end
// look only at the leaf-most frame of this module, so the simulator's
// event loop, which sits under every handler, is charged only for its
// own code. README.md lists the same map.
var cpuBuckets = []struct {
	name  string
	match func(stack []string) bool
}{
	{"gc", under(func(fn string) bool {
		return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.markroot") ||
			fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" || strings.HasPrefix(fn, "runtime.scanobject")
	})},
	{"sched_spin", under(func(fn string) bool {
		return fn == "runtime.schedule" || fn == "runtime.findRunnable" || fn == "runtime.Gosched" ||
			fn == "runtime.goschedImpl" || fn == "runtime.gosched_m" || fn == "runtime.park_m" ||
			fn == "runtime.futex" || fn == "runtime.usleep" || fn == "runtime.osyield"
	})},
	{"syscall", under(func(fn string) bool {
		return strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
			strings.HasPrefix(fn, "runtime/internal/syscall.") || strings.HasPrefix(fn, "runtime.netpoll")
	})},
	{"tx_sig", under(func(fn string) bool { return strings.HasSuffix(fn, "internal/utxo.(*Transaction).VerifySig") })},
	{"consensus_sig", under(func(fn string) bool {
		return strings.HasPrefix(fn, "crypto/ed25519.") || strings.HasPrefix(fn, "crypto/internal/fips140/ed25519.") ||
			strings.HasPrefix(fn, "crypto/internal/fips140/edwards25519") ||
			strings.Contains(fn, "internal/crypto.(*simScheme)") || strings.HasSuffix(fn, "internal/crypto.simMAC")
	})},
	{"gob", under(func(fn string) bool { return strings.HasPrefix(fn, "encoding/gob.") })},
	{"store", under(inPackage("store"))},
	{"bm", under(inPackage("bm"))},
	{"mempool", under(inPackage("mempool"))},
	{"accountability", under(inPackage("accountability"))},
	{"consensus", leafModuleFrame(inPackage("rbc", "bincon", "sbc", "asmr", "membership"))},
	{"simnet", leafModuleFrame(inPackage("simnet"))},
}

const modulePrefix = "github.com/zeroloss/zlb/"

// under matches a path holding any frame that pred accepts.
func under(pred func(string) bool) func([]string) bool {
	return func(stack []string) bool {
		for _, fn := range stack {
			if pred(fn) {
				return true
			}
		}
		return false
	}
}

// leafModuleFrame matches a path whose leaf-most frame of this module
// pred accepts.
func leafModuleFrame(pred func(string) bool) func([]string) bool {
	return func(stack []string) bool {
		for _, fn := range stack {
			if strings.HasPrefix(fn, modulePrefix) {
				return pred(fn)
			}
		}
		return false
	}
}

// inPackage accepts functions of the named internal packages.
func inPackage(pkgs ...string) func(string) bool {
	return func(fn string) bool {
		for _, p := range pkgs {
			if strings.HasPrefix(fn, modulePrefix+"internal/"+p+".") {
				return true
			}
		}
		return false
	}
}

// bucketNames lists every bucket in report order, "other" last.
func bucketNames() []string {
	out := make([]string, 0, len(cpuBuckets)+1)
	for _, b := range cpuBuckets {
		out = append(out, b.name)
	}
	return append(out, "other")
}

// bucketProfile returns CPU nanoseconds per bucket of a gzipped CPU
// profile.
func bucketProfile(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, fmt.Errorf("profile has no cpu sample type")
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		var fns []string
		for _, loc := range s.locs {
			for _, f := range p.locFuncs[loc] {
				fns = append(fns, p.str(p.funcNames[f]))
			}
		}
		out[classify(fns)] += float64(s.values[valueIdx])
	}
	return out, nil
}

func classify(stack []string) string {
	for _, b := range cpuBuckets {
		if b.match(stack) {
			return b.name
		}
	}
	return "other"
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []int64 // string index of each sample type's name
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location id → function ids (inlined first)
	funcNames   map[uint64]int64    // function id → name string index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			f.varint, b = v, b[n:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated appends a repeated varint field, packed or not.
func pbRepeated(f pbField, out *[]uint64) error {
	if f.wire == 0 {
		*out = append(*out, f.varint)
		return nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		*out = append(*out, v)
		b = b[n:]
	}
	return nil
}

func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := pbFields(data, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return pbFields(f.bytes, func(g pbField) error {
				if g.num == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(g.varint))
				}
				return nil
			})
		case 2: // sample
			var s profSample
			var vals []uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					return pbRepeated(g, &s.locs)
				case 2:
					return pbRepeated(g, &vals)
				}
				return nil
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4: // line
					return pbFields(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = int64(g.varint)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
