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

// The traced run folds each CPU profile sample to a layer. A layer is a
// module of the simulator (alpusim/internal/<module>), with memsys and dram
// charged to cache and the NIC's go-back-N code to network. Go runtime
// frames (allocation, channel handoff, scheduling) are charged to the
// innermost simulator frame that called them, since most samples of a
// coroutine-style simulator end in the runtime. A stack with no simulator
// frame and no benchmark frame is garbage collection or scheduler
// background work, charged to runtime.gc.

// Fold bucket keys besides the module names.
const (
	bucketTotal     = "total"
	bucketGC        = "runtime.gc"
	bucketHarness   = "harness"
	bucketHandoff   = "sim.handoff"
	bucketPartition = "sim.partition"
)

const internalPrefix = "alpusim/internal/"

// frame is one function of a sample stack.
type frame struct{ fn, file string }

// moduleOf names the layer a simulator frame belongs to, or "" for a
// frame outside the simulator.
func moduleOf(f frame) string {
	if !strings.HasPrefix(f.fn, internalPrefix) {
		return ""
	}
	rest := f.fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "memsys", "dram":
		return "cache"
	case "nic":
		if strings.HasSuffix(f.file, "/nic/reliability.go") {
			return "network"
		}
	}
	return rest
}

// classify returns the bucket a stack (leaf first) is charged to and,
// for the sim layer, the sub-bucket: handoff when the leaf is a runtime
// frame under a sim.(*Process) method (the park/resume channel handshake),
// partition when the innermost simulator frame is a sim.(*PartitionSet)
// method (barrier windows and cross-partition flushes).
func classify(stack []frame) (bucket, sub string) {
	for i, f := range stack {
		m := moduleOf(f)
		if m == "" {
			continue
		}
		if m == "sim" {
			switch {
			case strings.Contains(f.fn, "sim.(*PartitionSet)"):
				sub = bucketPartition
			case i > 0 && strings.HasPrefix(stack[0].fn, "runtime.") && strings.Contains(f.fn, "sim.(*Process)"):
				sub = bucketHandoff
			}
		}
		return m, sub
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "main.") {
			return bucketHarness, ""
		}
	}
	return bucketGC, ""
}

// foldStacks adds each stack's weight to its bucket, its sub-bucket and
// the total.
func foldStacks(stacks [][]frame, weights []int64, into map[string]int64) {
	for i, st := range stacks {
		b, sub := classify(st)
		into[b] += weights[i]
		if sub != "" {
			into[sub] += weights[i]
		}
		into[bucketTotal] += weights[i]
	}
}

// foldProfile decodes a gzipped pprof CPU profile and folds its samples
// (weighted by sample count) into the buckets.
func foldProfile(data []byte, into map[string]int64) error {
	if len(data) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	stacks := make([][]frame, len(p.samples))
	weights := make([]int64, len(p.samples))
	for i, s := range p.samples {
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				fn := p.funcs[fid]
				stacks[i] = append(stacks[i], frame{fn: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		if len(s.values) > 0 {
			weights[i] = s.values[0]
		}
	}
	foldStacks(stacks, weights, into)
	return nil
}

// profile holds the parts of a profile.proto message the fold needs.
type profile struct {
	samples  []protoSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]protoFunc
	strings  []string
}

type protoSample struct {
	locs   []uint64 // leaf first
	values []int64
}

type protoFunc struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID       = 1
	funcName     = 2
	funcFilename = 4
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcs: map[uint64]protoFunc{}}
	err := walkFields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSample:
			var s protoSample
			err := walkFields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					s.locs = appendPacked(s.locs, v, sub)
				case sampleValue:
					for _, u := range appendPacked(nil, v, sub) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fids []uint64
			err := walkFields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return walkFields(sub, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fids
			return err
		case profFunction:
			var id uint64
			var f protoFunc
			err := walkFields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					f.name = int64(v)
				case funcFilename:
					f.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case profStrings:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v) or as a packed run (msg).
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		u, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		msg = msg[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// walkFields calls fn for every field of a protobuf message: varint
// fields with their value, length-delimited fields with their bytes.
// Fixed-width fields are skipped.
func walkFields(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
