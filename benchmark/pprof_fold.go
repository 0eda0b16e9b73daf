package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzip-compressed protobuf CPU profile that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto).
// It decodes just enough — string table, functions, locations, samples —
// to attribute every sample to a layer of this repository.

// profile is the decoded subset of a pprof Profile message.
type profile struct {
	strings   []string
	funcName  map[uint64]int      // function id -> string-table index of its name
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost (inlined leaf) first
	samples   []profSample
	valueCols int
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errTruncated = errors.New("pprof: truncated message")

// protoReader walks one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited payload. Fixed-width fields are skipped over
// (profile.proto has none that matter here).
func (r *protoReader) next() (field int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, payload, err
}

func (r *protoReader) skip(n int) error {
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// repeatedVarints appends a repeated integer field that may arrive
// packed (payload) or one element at a time (v).
func repeatedVarints(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	r := protoReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{funcName: make(map[uint64]int), locFuncs: make(map[uint64][]uint64)}
	r := protoReader{raw}
	for len(r.b) > 0 {
		field, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			p.valueCols++
		case 2: // sample
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			id, funcs, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			p.locFuncs[id] = funcs
		case 5: // function
			id, name, err := parseFunction(payload)
			if err != nil {
				return nil, err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	var vals []uint64
	r := protoReader{b}
	for len(r.b) > 0 {
		field, v, payload, err := r.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.locs, err = repeatedVarints(s.locs, v, payload); err != nil {
				return s, err
			}
		case 2:
			if vals, err = repeatedVarints(vals, v, payload); err != nil {
				return s, err
			}
		}
	}
	s.values = make([]int64, len(vals))
	for i, v := range vals {
		s.values[i] = int64(v)
	}
	return s, nil
}

func parseLocation(b []byte) (id uint64, funcs []uint64, err error) {
	r := protoReader{b}
	for len(r.b) > 0 {
		field, v, payload, err := r.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1:
			id = v
		case 4: // line: function_id = 1
			lr := protoReader{payload}
			for len(lr.b) > 0 {
				lf, lv, _, err := lr.next()
				if err != nil {
					return 0, nil, err
				}
				if lf == 1 {
					funcs = append(funcs, lv)
				}
			}
		}
	}
	return id, funcs, nil
}

func parseFunction(b []byte) (id uint64, name int, err error) {
	r := protoReader{b}
	for len(r.b) > 0 {
		field, v, _, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int(v)
		}
	}
	return id, name, nil
}

// stack returns a sample's function names, innermost frame first, with
// inlined calls expanded.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			if i := p.funcName[fn]; i >= 0 && i < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// cpuLayers are the buckets CPU samples fold into, in report order.
var cpuLayers = []string{
	"sim", "packet", "core", "dataplane", "controlplane", "topo", "wiring", "harness",
	"baselines", "faults", "audit", "trace", "runner", "gc", "other",
}

// packageLayer maps a repository package (the path element after
// p4update/internal/) to its bucket.
var packageLayer = map[string]string{
	"sim": "sim", "packet": "packet", "core": "core", "dataplane": "dataplane",
	"controlplane": "controlplane", "plancache": "controlplane",
	"topo": "topo", "wiring": "wiring",
	"soak": "harness", "traffic": "harness", "experiments": "harness", "metrics": "harness",
	"ezsegway": "baselines", "central": "baselines", "localverify": "baselines",
	"ppcu": "baselines", "optoracle": "baselines",
	"faults": "faults", "audit": "audit", "trace": "trace", "runner": "runner",
}

// gcRoots are the runtime entry points of allocation and collection: a
// stack that passes through one is charged to the gc bucket whatever
// code asked for the memory.
var gcRoots = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.(*mheap).", "runtime.(*mcache).", "runtime.(*mcentral).", "runtime.gcDrain",
	"runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.sweepone",
}

const repoPrefix = "p4update/internal/"

// layerOfStack attributes one stack: gc when it passes through the
// allocator or the collector; otherwise the innermost frame that belongs
// to a package of this repository decides, so a map access or memmove
// the soak harness makes counts as harness rather than as runtime;
// otherwise other.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, repoPrefix) {
			continue
		}
		pkg := fn[len(repoPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if layer, ok := packageLayer[pkg]; ok {
			return layer
		}
		return "other"
	}
	return "other"
}

// foldCPU returns each layer's share of the profile's CPU time. The
// shares sum to 1; an empty profile folds to all zeros.
func foldCPU(p *profile) map[string]float64 {
	col := p.valueCols - 1 // cpu/nanoseconds is the last column; samples/count the first
	if col < 0 {
		col = 0
	}
	by := make(map[string]float64, len(cpuLayers))
	var total float64
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		v := float64(s.values[col])
		by[layerOfStack(p.stack(s))] += v
		total += v
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = by[l] / total
		} else {
			out[l] = 0
		}
	}
	return out
}
