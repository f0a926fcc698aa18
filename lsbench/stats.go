package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// fnv is a 64-bit FNV-1a hash fed eight bytes at a time.
type fnv uint64

const fnvOffset fnv = 14695981039346656037

func (h fnv) u64(v uint64) fnv {
	for i := 0; i < 8; i++ {
		h ^= fnv(v & 0xff)
		h *= 1099511628211
		v >>= 8
	}
	return h
}

func (h fnv) f64(v float64) fnv { return h.u64(math.Float64bits(v)) }

// spanUnion returns how much of [lo, hi] the spans cover, counting
// overlapping spans once. spans is sorted in place.
func spanUnion(spans []span, lo, hi time.Time) time.Duration {
	slices.SortFunc(spans, func(a, b span) int { return a.start.Compare(b.start) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, s := range spans {
		st, en := s.start, s.end
		if st.Before(lo) {
			st = lo
		}
		if en.After(hi) {
			en = hi
		}
		if !en.After(st) {
			continue
		}
		if open && !st.After(curE) {
			if en.After(curE) {
				curE = en
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = st, en, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}
