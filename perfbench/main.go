// Command perfbench is the repository benchmark: two seeded, closed-loop
// workloads that drive the collaborative-scoping pipeline end to end — the
// paper pipeline on OC3-FO, and schema churn with enrichment and
// incremental maintenance behind the /v1 service — and report
// end-to-end metrics (untraced run) or per-layer metrics (traced run) as
// one JSON line.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper_oc3fo --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it print
// every metric by name with its unit, plus context such as the tail
// percentile and sample count. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"collabscope/internal/obs"
)

// maxLoggedFailures caps the per-run failure messages on stderr.
const maxLoggedFailures = 5

// calibrationReps is how many times the host-speed probe runs before and
// after the measurement.
const calibrationReps = 5

// workload describes one named scenario.
type workload struct {
	name string
	// setupReps is how many times each run stands the workload up; setup_s
	// is the median, and only the last instance is measured.
	setupReps int
	// setup stands the workload up from the seed — inputs, system, one
	// warm-up op — in a fresh working directory. traced selects the
	// instrumented variant of the system (hub handler wrapper, metrics).
	setup func(ctx context.Context, seed int64, dir string, traced bool) (instance, error)
}

// instance is one stood-up workload.
type instance interface {
	// reference computes the correctness references (not timed as set-up).
	reference(ctx context.Context) error
	// op runs one op. A non-nil rec selects the traced decomposition,
	// which records a span per layer call under root.
	op(ctx context.Context, rec *recorder, opID int64, root *handle) (outcome, error)
	// info adds workload-specific report lines (name → value, unit).
	info() []metric
	// layerExtras returns workload-level per-layer values (quality
	// scores, on-disk sizes, hub counters) for the traced report.
	layerExtras() map[string]float64
	close()
}

// outcome is what one op hands back to the harness.
type outcome struct {
	// verify checks the op's output against the reference; it runs after
	// the op's clock stops, so checking never counts as op time.
	verify func() error
	// phases are named sub-intervals of the op (evolve_churn's update
	// and reassess halves).
	phases map[string]time.Duration
	// counts are per-op work counts for the per-layer report.
	counts map[string]float64
}

// opSample is one completed op.
type opSample struct {
	id  int64
	dur time.Duration
	out outcome
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

var workloads = []workload{
	{name: "paper_oc3fo", setupReps: 5, setup: setupPaper},
	{name: "evolve_churn", setupReps: 3, setup: setupChurn},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	// One core: a shared 2-vCPU VM can be granted anywhere between one and
	// two CPUs' worth of time, changing from minute to minute, and a
	// process that runs on two cores then measures that grant instead of
	// the program (see README.md).
	runtime.GOMAXPROCS(1)
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir, relative to the directory the benchmark runs from, holds the
// per-run scratch state (removed on exit) and the span files of traced runs.
const outDir = ".bench_build"

func run(name string, seed int64, measure time.Duration, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, x := range workloads {
			names = append(names, x.name)
		}
		return fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	workdir := filepath.Join(outDir, "work")
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// Stand the workload up setupReps times; keep the last instance. The
	// heap is collected and returned to the OS between repetitions, so the
	// discarded instances do not inflate the measured phase.
	var setups []float64
	var inst instance
	for r := 0; r < w.setupReps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
			debug.FreeOSMemory()
		}
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", r))
		sw := obs.NewStopwatch()
		inst, err = w.setup(ctx, seed, sdir, traced)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, sw.Elapsed().Seconds())
	}
	defer inst.close()
	refSW := obs.NewStopwatch()
	if err := inst.reference(ctx); err != nil {
		return fmt.Errorf("%s reference: %w", w.name, err)
	}
	refS := refSW.Elapsed().Seconds()

	calBefore := calibrationMS(calibrationReps)
	var res result
	if !traced {
		rep := measureLoop(ctx, inst, measure, nil)
		res = rep.result()
		res.add("setup_s", median(setups), "s")
		res.endToEnd(rep)
		res.info = append(res.info, inst.info()...)
	} else {
		// Half the time untraced (the overhead baseline), half traced.
		base := measureLoop(ctx, inst, measure/2, nil)
		rec := newRecorder()
		reg := obs.NewRegistry()
		tctx := obs.NewContext(ctx, reg, nil)
		tr := measureLoop(tctx, inst, measure/2, rec)
		res = tr.result()
		res.attempted += base.attempted
		res.failed += base.failed
		spans := rec.snapshot()
		res.metrics = layerReport(tr.samples, spans, reg, inst.layerExtras())
		res.add("trace.ops_per_s", tr.opsPerS(), "1/s")
		res.add("trace.untraced_ops_per_s", base.opsPerS(), "1/s")
		overhead := 0.0
		if tr.opsPerS() > 0 {
			overhead = 100 * (base.opsPerS()/tr.opsPerS() - 1)
		}
		res.add("trace.overhead_pct", overhead, "%")
		rss, err := maxRSSMB()
		if err != nil {
			return err
		}
		res.add("process.max_rss_mb", rss, "MB")
		out := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := writeSpansFile(out, spans); err != nil {
			return err
		}
		res.info = append(res.info, metric{"spans", float64(len(spans)), "count"})
	}
	res.info = append(res.info,
		metric{"calibration_ms", (calBefore + calibrationMS(calibrationReps)) / 2, "ms"},
		metric{"reference_s", refS, "s"})
	for i, s := range setups {
		res.info = append(res.info, metric{fmt.Sprintf("setup_rep%d_s", i+1), s, "s"})
	}
	return res.print(os.Stdout, w.name, seed, traced)
}

func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loopReport is the outcome of one closed-loop measurement.
type loopReport struct {
	samples   []opSample
	attempted int
	failed    int
	busy      time.Duration // time spent inside ops
	alloc     float64
	faults    int64 // minor page faults during the measurement
}

// measureLoop runs one closed-loop caller against inst until measure has
// elapsed: the next op starts only after the previous one returned and was
// verified.
func measureLoop(ctx context.Context, inst instance, measure time.Duration, rec *recorder) *loopReport {
	rep := &loopReport{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	faults := minorFaults()
	clock := obs.NewStopwatch()
	for id := int64(1); clock.Elapsed() < measure; id++ {
		root := rec.start(id, nil, "op")
		sw := obs.NewStopwatch()
		out, err := inst.op(ctx, rec, id, root)
		d := sw.Elapsed()
		root.end()
		if err == nil && out.verify != nil {
			err = out.verify()
		}
		rep.attempted++
		rep.busy += d
		if err != nil {
			rep.failed++
			if rep.failed <= maxLoggedFailures {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", id, err)
			}
		}
		rep.samples = append(rep.samples, opSample{id: id, dur: d, out: out})
	}
	rep.faults = minorFaults() - faults
	runtime.ReadMemStats(&after)
	rep.alloc = allocMBPerOp(&before, &after, rep.attempted)
	return rep
}

// opsPerS is the closed-loop throughput counting only time spent inside
// ops.
func (r *loopReport) opsPerS() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(r.attempted) / r.busy.Seconds()
}

func (r *loopReport) durationsMS() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.dur) / 1e6
	}
	return out
}

// phaseMS collects one named phase over all samples, in milliseconds.
func phaseMS(samples []opSample, name string) []float64 {
	var out []float64
	for _, s := range samples {
		if d, ok := s.out.phases[name]; ok {
			out = append(out, float64(d)/1e6)
		}
	}
	return out
}

// countPerOp is the mean of one per-op count over the samples.
func countPerOp(samples []opSample, name string) float64 {
	return ratio(countTotal(samples, name), float64(len(samples)))
}

// result is the printed report.
type result struct {
	attempted, failed int
	metrics           []metric
	info              []metric
}

func (r *loopReport) result() result {
	return result{attempted: r.attempted, failed: r.failed}
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// endToEnd adds the untraced end-to-end metrics of a measurement.
func (r *result) endToEnd(rep *loopReport) {
	durs := rep.durationsMS()
	r.add("ops_per_s", rep.opsPerS(), "1/s")
	q1, q2, q3 := quartiles(durs)
	r.add("op_p50_ms", q2, "ms")
	tv, pct, beyond := tail(durs)
	r.add("op_tail_ms", tv, "ms")
	r.info = append(r.info,
		metric{"op_tail_percentile", float64(pct), "pct"},
		metric{"op_tail_beyond", float64(beyond), "count"},
		metric{"op_samples", float64(len(durs)), "count"},
		metric{"op_q1_ms", q1, "ms"},
		metric{"op_q3_ms", q3, "ms"})
	okRatio, errRatio := 0.0, 0.0
	if rep.attempted > 0 {
		okRatio = float64(rep.attempted-rep.failed) / float64(rep.attempted)
		errRatio = float64(rep.failed) / float64(rep.attempted)
	}
	r.add("ok_ratio", okRatio, "ratio")
	r.info = append(r.info, metric{"error_ratio", errRatio, "ratio"})
	r.add("alloc_mb_per_op", rep.alloc, "MB")
	r.info = append(r.info, metric{"minor_faults_per_op", ratio(float64(rep.faults), float64(rep.attempted)), "count"})
	// Peak RSS follows GC timing too closely to gate on (see README.md);
	// it is reported, not bounded.
	if rss, err := maxRSSMB(); err == nil {
		r.info = append(r.info, metric{"max_rss_mb", rss, "MB"})
	}
	for _, ph := range []string{"update", "reassess"} {
		if xs := phaseMS(rep.samples, ph); len(xs) > 0 {
			r.info = append(r.info, metric{ph + "_p50_ms", median(xs), "ms"})
		}
	}
}

// print writes every metric as a "name value unit" line, then the result
// object as the last line.
func (r result) print(w *os.File, name string, seed int64, traced bool) error {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d traced=%v attempted=%d failed=%d\n",
		name, seed, traced, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.info {
		fmt.Fprintf(w, "# %-32s %16.6f %s\n", m.name, m.value, m.unit)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		if _, dup := metrics[m.name]; dup {
			return fmt.Errorf("metric %q reported twice", m.name)
		}
		metrics[m.name] = val{m.value, m.unit}
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
