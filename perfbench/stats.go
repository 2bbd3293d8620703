package main

// Summary statistics over per-op samples and process resource counters.

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"

	"collabscope/internal/linalg"
	"collabscope/internal/obs"
)

// quantile returns the q-quantile (q ∈ [0, 1]) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than extrapolated.
const tailMinBeyond = 10

// tail returns the value at the highest whole percentile of xs that still
// has at least tailMinBeyond samples strictly above it, with that
// percentile and the number of samples beyond it. Below 2·tailMinBeyond
// samples no percentile above the median qualifies, and the median is
// reported instead (percentile 50) with however many samples lie above it.
func tail(xs []float64) (value float64, pct int, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	pct = 50
	if n > tailMinBeyond {
		// With interpolation at rank q·(n−1), the samples beyond the value
		// number n−1−⌊q·(n−1)⌋, so q must stay below (n−10)/(n−1).
		pct = max(pct, int(math.Ceil(100*float64(n-tailMinBeyond)/float64(n-1)))-1)
	}
	value = quantile(xs, float64(pct)/100)
	for _, x := range xs {
		if x > value {
			beyond++
		}
	}
	return value, pct, beyond
}

// allocMBPerOp converts the TotalAlloc delta between two MemStats reads
// into megabytes allocated per op.
func allocMBPerOp(before, after *runtime.MemStats, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(ops)
}

// maxRSSMB returns the process's peak resident set size in megabytes
// (getrusage reports kilobytes on Linux).
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// minorFaults returns the process's minor page-fault count so far.
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

// calibrationMS times a fixed single-threaded kernel — a full PCA fit of a
// constant 64×768 Gaussian matrix — reps times and returns the median in
// milliseconds. It tracks how fast the host is during a run, so run-to-run
// drift of the host can be told apart from drift of the program.
func calibrationMS(reps int) float64 {
	rng := rand.New(rand.NewSource(1))
	x := linalg.NewDense(64, benchDim)
	for i := 0; i < 64; i++ {
		for j := 0; j < benchDim; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	times := make([]float64, reps)
	for r := range times {
		sw := obs.NewStopwatch()
		linalg.FitPCA(x, 1)
		times[r] = float64(sw.Elapsed()) / 1e6
	}
	return median(times)
}
