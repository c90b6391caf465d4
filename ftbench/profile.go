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

// cpuLayers are the buckets a traced run's CPU profile is split into: the
// repository packages on the message path, the benchmark's own harness, the
// Go runtime with the standard library, and everything else.
var cpuLayers = []string{"gm", "sim", "core", "mcp", "lanai", "host", "fabric",
	"mapper", "ckpt", "gossip", "gmproto", "ftbench", "runtime", "other"}

// layerOf maps a profiled function name to its bucket.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/gm."):
		return "gm"
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "ftbench"
	case strings.HasPrefix(fn, "repro/"):
		return "other"
	}
	return "runtime"
}

// profileSelfTime adds the CPU time of each sample of a gzipped pprof CPU
// profile to the layer of the sample's innermost function.
func profileSelfTime(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		leaf    = map[uint64]uint64{} // location id -> innermost function id
		samples [][2]uint64           // leaf location id, cpu ns
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = pbUints(locs, v, b)
				case 2:
					vals = pbUints(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) < 2 {
				return errors.New("malformed sample")
			}
			samples = append(samples, [2]uint64{locs[0], vals[1]})
		case 4: // Location
			var id, fn uint64
			lines := 0
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					// The first line is the innermost of any inlined calls.
					if lines++; lines == 1 {
						return pbFields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			leaf[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
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
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if i, ok := funcs[leaf[s[0]]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		into[layerOf(name)] += int64(s[1])
	}
	return nil
}

// pbFields walks the fields of one protobuf message, passing each field's
// number with its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed (b != nil) or not.
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
