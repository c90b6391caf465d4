package main

import (
	"math/bits"
	"slices"
	"time"
)

var epoch = time.Now()

// nanotime is the monotonic host clock in ns since process start.
func nanotime() int64 { return int64(time.Since(epoch)) }

// hist is a log-linear histogram of non-negative samples: values below 16
// are exact, larger ones fall in one of 16 linear sub-buckets per power of
// two, so a quantile read from it is within 1/16 of the true sample.
type hist struct {
	n   uint64
	sum int64
	b   [64 * 16]uint64
}

func bucketOf(v int64) int {
	if v < 16 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 5
	return (e+1)*16 + int(uint64(v)>>e) - 16
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 16 {
		return float64(i)
	}
	e := i/16 - 1
	lo := int64(i%16+16) << e
	return float64(lo) + float64(int64(1)<<e)/2
}

func (h *hist) add(v int64) {
	h.n++
	h.sum += v
	h.b[bucketOf(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile (0 < q < 1) of the recorded samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.b {
		seen += c
		if seen > rank {
			return bucketMid(i)
		}
	}
	return 0
}

// exactQuantile sorts v in place and returns its q-quantile (nearest rank).
func exactQuantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(q * float64(len(v)))
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// median of a sample, by value; the input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
