package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for tails: a percentile is only
// reported when at least this many samples lie beyond it. With fewer
// samples the tail is the highest percentile that still has minBeyond
// samples past it, so a short run never reports a "p90" that is really
// its single slowest operation.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks — the same definition as
// Python's statistics.quantiles(method="inclusive") and numpy's default.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailQuantile is the quantile a tail of q may honestly report over n
// samples: q itself when n(1−q) ≥ minBeyond, otherwise the highest
// quantile with minBeyond samples beyond it (0.5 at the least, so a
// tiny run reports its median as its tail rather than nothing).
func tailQuantile(q float64, n int) float64 {
	if n <= 0 {
		return q
	}
	if float64(n)*(1-q) >= minBeyond-1e-9 { // 100×(1−0.9) is 9.999… in floating point
		return q
	}
	t := 1 - float64(minBeyond)/float64(n)
	if t < 0.5 {
		t = 0.5
	}
	return t
}

// Sample is one latency class's observations.
type Sample struct {
	ms []float64
}

func (s *Sample) add(d time.Duration) { s.ms = append(s.ms, float64(d)/float64(time.Millisecond)) }

// merged pools several classes into a new one.
func merged(ss ...*Sample) *Sample {
	out := &Sample{}
	for _, s := range ss {
		out.ms = append(out.ms, s.ms...)
	}
	return out
}

// Summary is a latency class reduced to its reported figures.
type Summary struct {
	N      int
	P50    float64
	Tail   float64 // at TailQ
	TailQ  float64 // the quantile Tail was taken at (0.9 unless too few samples)
	Mean   float64
	Max    float64
	Sorted []float64
}

// summarize reduces a class to median and p90 under the sample-count
// rule.
func (s *Sample) summarize() Summary {
	v := append([]float64(nil), s.ms...)
	sort.Float64s(v)
	out := Summary{N: len(v), Sorted: v, P50: math.NaN(), Tail: math.NaN(), Mean: math.NaN(), Max: math.NaN()}
	if len(v) == 0 {
		return out
	}
	out.TailQ = tailQuantile(0.9, len(v))
	out.P50 = quantile(v, 0.5)
	out.Tail = quantile(v, out.TailQ)
	var sum float64
	for _, x := range v {
		sum += x
	}
	out.Mean = sum / float64(len(v))
	out.Max = v[len(v)-1]
	return out
}

// median of an unsorted slice of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// interval is a half-open [start, end) span of wall time in
// nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs clipped to [lo, hi):
// overlapping intervals (parallel fragment streams) count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var curS, curE int64
	open := false
	for _, iv := range clipped {
		if !open {
			curS, curE, open = iv.start, iv.end, true
			continue
		}
		if iv.start <= curE {
			if iv.end > curE {
				curE = iv.end
			}
			continue
		}
		total += curE - curS
		curS, curE = iv.start, iv.end
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(parent interval, children []interval) int64 {
	return (parent.end - parent.start) - unionLen(children, parent.start, parent.end)
}

// mix deals operation kinds in shuffled blocks: every block holds each
// kind exactly as often as counts says, so a run's operation mix stays
// within one block of the nominal shares instead of drifting with
// binomial noise from seed to seed.
type mix struct {
	rng  *rand.Rand
	deck []int
	pos  int
}

func newMix(rng *rand.Rand, counts ...int) *mix {
	m := &mix{rng: rng}
	for kind, n := range counts {
		for i := 0; i < n; i++ {
			m.deck = append(m.deck, kind)
		}
	}
	return m
}

func (m *mix) next() int {
	if m.pos == 0 {
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	k := m.deck[m.pos]
	m.pos = (m.pos + 1) % len(m.deck)
	return k
}
