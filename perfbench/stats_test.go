package main

import (
	"math"
	"runtime"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9} // sorted: 1 3 5 7 9
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 3) || !near(q2, 5) || !near(q3, 7) {
		t.Fatalf("quartiles = %v %v %v, want 3 5 7", q1, q2, q3)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Fatalf("even-length median = %v, want 2.5", got)
	}
	if xs[0] != 7 {
		t.Fatal("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of no samples must be NaN")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 100, 250, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		v, pct, beyond := tail(xs)
		if beyond < tailMinBeyond {
			t.Fatalf("n=%d: p%d = %v has only %d samples beyond", n, pct, v, beyond)
		}
		// One percentile higher would leave fewer than ten beyond.
		if pct < 99 {
			next := quantile(xs, float64(pct+1)/100)
			above := 0
			for _, x := range xs {
				if x > next {
					above++
				}
			}
			if above >= tailMinBeyond {
				t.Fatalf("n=%d: p%d is not the highest percentile with ≥%d beyond (p%d has %d)",
					n, pct, tailMinBeyond, pct+1, above)
			}
		}
	}
	if _, pct, _ := tail([]float64{1, 2, 3, 4, 5}); pct != 50 {
		t.Fatalf("small sample reported p%d, want the p50 floor", pct)
	}
	if v, pct, beyond := tail([]float64{3}); v != 3 || pct != 50 || beyond != 0 {
		t.Fatalf("single sample: tail = %v p%d beyond %d", v, pct, beyond)
	}
	if _, pct, _ := tail(make([]float64, 1000)); pct != 99 {
		t.Fatalf("n=1000 reported p%d, want p99", pct)
	}
}

func TestAllocMBPerOp(t *testing.T) {
	before := runtime.MemStats{TotalAlloc: 1 << 20}
	after := runtime.MemStats{TotalAlloc: 11 << 20}
	if got := allocMBPerOp(&before, &after, 4); !near(got, 2.5) {
		t.Fatalf("allocMBPerOp = %v, want 2.5", got)
	}
	if got := allocMBPerOp(&before, &after, 0); got != 0 {
		t.Fatalf("allocMBPerOp with no ops = %v, want 0", got)
	}
	// A live measurement sees at least the bytes allocated between reads.
	var b, a runtime.MemStats
	runtime.ReadMemStats(&b)
	sink := make([]byte, 8<<20)
	runtime.ReadMemStats(&a)
	if got := allocMBPerOp(&b, &a, 1); got < 8 {
		t.Fatalf("allocated 8 MB, measured %v", got)
	}
	_ = sink
}

func TestMaxRSSMB(t *testing.T) {
	rss, err := maxRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 1 || rss > 1<<20 {
		t.Fatalf("max RSS %v MB is not plausible", rss)
	}
}
