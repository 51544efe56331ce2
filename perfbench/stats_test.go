package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileMatchesInclusiveDefinition(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}, {0.25, 3.25},
	} {
		if got := quantile(v, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample quantile = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile is not NaN")
	}
}

func TestTailQuantileSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.9}, // 100 samples beyond p90
		{100, 0.9},  // exactly minBeyond beyond
		{50, 0.8},   // p90 would have 5 beyond; p80 has 10
		{40, 0.75},
		{15, 0.5}, // clamps at the median
		{0, 0.9},
	} {
		if got := tailQuantile(0.9, tc.n); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailQuantile(0.9, %d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n > 0 {
			if beyond := float64(tc.n) * (1 - tailQuantile(0.9, tc.n)); beyond < minBeyond-1e-9 && tailQuantile(0.9, tc.n) > 0.5 {
				t.Errorf("n=%d leaves %.1f samples beyond the tail", tc.n, beyond)
			}
		}
	}
}

func TestSummarizeReportsTailUnderRule(t *testing.T) {
	var s Sample
	for i := 1; i <= 50; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	sum := s.summarize()
	if sum.N != 50 || sum.TailQ != 0.8 {
		t.Fatalf("summary n=%d tailQ=%v, want 50 and 0.8", sum.N, sum.TailQ)
	}
	if math.Abs(sum.P50-25.5) > 1e-9 || math.Abs(sum.Tail-40.2) > 1e-9 || sum.Max != 50 {
		t.Fatalf("summary %+v, want p50 25.5 tail 40.2 max 50", sum)
	}
}

func TestUnionLenMergesOverlaps(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {45, 48}, {60, 60}}
	if got := unionLen(ivs, 0, 100); got != 30 {
		t.Fatalf("union = %d, want 30", got)
	}
	// Clipped to the parent: [12, 45) covers 12..30 and 40..45.
	if got := unionLen(ivs, 12, 45); got != 23 {
		t.Fatalf("clipped union = %d, want 23", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
	// Touching intervals merge without double counting.
	if got := unionLen([]interval{{0, 5}, {5, 10}}, 0, 100); got != 10 {
		t.Fatalf("touching union = %d, want 10", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 40}, {20, 50}, {90, 120}} // last one outlives the parent
	if got := selfTime(parent, children); got != 100-40-10 {
		t.Fatalf("self = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self without children = %d, want 100", got)
	}
}

func TestBreakdownAccountsAndFlagsEscapes(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Op: 1, Parent: 1, Name: "remote.open", Start: 10, End: 20},
		{ID: 3, Op: 1, Parent: 1, Name: "remote.open", Start: 15, End: 25},
		{ID: 4, Op: 1, Parent: 1, Name: "remote.stream", Start: 25, End: 70},
		{ID: 5, Op: 5, Name: "op", Start: 200, End: 310},
		{ID: 6, Op: 5, Parent: 5, Name: "remote.stream", Start: 250, End: 320},
	}
	bd := breakdown(spans)
	if len(bd) != 2 {
		t.Fatalf("%d ops, want 2", len(bd))
	}
	for _, b := range bd {
		switch b.wall {
		case 100:
			if b.union != 60 || b.self != 40 || b.escaped != 0 {
				t.Errorf("op 1 breakdown %+v", b)
			}
		default:
			// The child outlives its op: union+self exceeds the wall,
			// which is what fails the accounting check.
			if b.escaped != 1 || b.union+b.self <= b.wall {
				t.Errorf("op 5 breakdown %+v: escape not visible", b)
			}
		}
	}
}
