package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark needs only each sample's count and its stack of
// function names, so it decodes those few fields itself rather than
// pulling in a profile library.

// stackSample is one profile sample: its weight and its frames,
// innermost first.
type stackSample struct {
	count  int64
	frames []string
}

// errTruncated reports a message that ends inside a field.
var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field.
type pbField struct {
	num   int
	wire  int
	value uint64 // varint payload
	bytes []byte // length-delimited payload
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.value, n = pbVarint(b); n == 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarint decodes a varint; n is 0 when b ends inside it.
func pbVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts returns a repeated integer field's values, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, sf := range fs {
				vs, err := pbInts(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if s.count == 0 && len(vs) > 0 {
						s.count = int64(vs[0]) // the first value is the sample count
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // Line
					ls, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ss.frames = append(ss.frames, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// packageOf returns the import path of a profiled function name such
// as "eilid/internal/core.(*Machine).runLoop.func1" or
// "eilid/internal/fleet/pool.StreamIndexedCancel[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a frame to the layer it belongs to, or "" when it is
// not in an eilid module.
func moduleOf(fn string) string {
	mod, ok := strings.CutPrefix(packageOf(fn), "eilid/internal/")
	if !ok {
		return ""
	}
	switch mod {
	case "fleet/pool":
		return "pool"
	case "fleet/serve":
		return "serve"
	}
	for _, m := range profModules {
		if m == mod {
			return m
		}
	}
	return "other"
}

// attribute charges each sample to the innermost eilid/internal module
// on its stack; a sample with none goes to gc (runtime GC workers),
// net (net/http and net) or other. It returns each bucket's share of
// all samples and the sample total.
func attribute(samples []stackSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		counts[bucketOf(s.frames)] += s.count
	}
	shares := map[string]float64{}
	for _, m := range profModules {
		if total > 0 {
			shares[m] = float64(counts[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, total
}

func bucketOf(frames []string) string {
	for _, fn := range frames {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "gc"
		}
	}
	for _, fn := range frames {
		if p := packageOf(fn); p == "net" || strings.HasPrefix(p, "net/") {
			return "net"
		}
	}
	return "other"
}
