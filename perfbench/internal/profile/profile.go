// Package profile decodes the gzipped protocol-buffer CPU profiles
// runtime/pprof writes, just far enough to attribute samples to
// stack frames. It is a stdlib-only subset of the profile.proto
// schema: sample types, samples, locations (with inlined lines),
// functions and the string table.
package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame is one function on a sample's stack.
type Frame struct {
	Func string // fully qualified, e.g. "mpichgq/internal/sim.(*Kernel).run"
	File string
}

// Sample is one profile sample: its stack, leaf first, and its values
// in SampleTypes order.
type Sample struct {
	Stack  []Frame
	Values []int64
}

// Profile is a decoded profile.
type Profile struct {
	// SampleTypes are "type/unit" pairs, e.g. "cpu/nanoseconds".
	SampleTypes []string
	Samples     []Sample
}

// ValueIndex returns the index of the sample type named typ/unit, or
// -1.
func (p *Profile) ValueIndex(typeUnit string) int {
	for i, t := range p.SampleTypes {
		if t == typeUnit {
			return i
		}
	}
	return -1
}

// Parse decodes a (possibly gzipped) profile.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		data = raw
	}
	return decode(data)
}

type rawValueType struct{ typ, unit int64 }

type rawSample struct {
	locs   []uint64
	values []int64
}

type rawLine struct{ fn uint64 }

type rawFunction struct{ name, file int64 }

// decode walks the top-level Profile message.
func decode(b []byte) (*Profile, error) {
	var (
		types   []rawValueType
		samples []rawSample
		locs    = make(map[uint64][]rawLine)
		funcs   = make(map[uint64]rawFunction)
		strs    []string
	)
	err := fields(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			var vt rawValueType
			err := fields(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := fields(sub, func(n, w int, v uint64, pk []byte) error {
				switch n {
				case 1:
					return repeatedVarint(w, v, pk, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeatedVarint(w, v, pk, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []rawLine
			err := fields(sub, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var ln rawLine
					if err := fields(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							ln.fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, ln)
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // function
			var id uint64
			var f rawFunction
			err := fields(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &Profile{}
	for _, t := range types {
		p.SampleTypes = append(p.SampleTypes, str(t.typ)+"/"+str(t.unit))
	}
	for _, s := range samples {
		var stack []Frame
		for _, id := range s.locs {
			// Lines are innermost first: the leading entries were
			// inlined into the last one.
			for _, ln := range locs[id] {
				f := funcs[ln.fn]
				stack = append(stack, Frame{Func: str(f.name), File: str(f.file)})
			}
		}
		p.Samples = append(p.Samples, Sample{Stack: stack, Values: s.values})
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// fields iterates the fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields sub holds the
// payload. Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint handles a repeated varint field in either its packed
// (length-delimited) or unpacked encoding.
func repeatedVarint(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
