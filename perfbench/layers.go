package main

// The traced run's per-layer report. Every workload reports the same list,
// so a layer a workload never enters reads 0 there.

import (
	"time"

	"collabscope/internal/obs"
)

// busyLayers are the span names whose per-op self time is reported as
// <name>.busy_ms and whose share of the op is <name>.share.
var busyLayers = []string{"enrich", "embed", "core.fit", "core.train", "core.assess", "match", "op"}

// stepLayers are per-op self times reported under their issue-given names.
var stepLayers = []struct{ span, metric string }{
	{"exchange.upload", "exchange.upload_ms"},
	{"checkpoint.load", "checkpoint.load_ms"},
	{"core.apply", "core.apply_ms"},
	{"core.refit", "core.refit_ms"},
	{"checkpoint.save", "checkpoint.save_ms"},
	{"core.delta", "core.delta_ms"},
}

// perOpCounts are outcome counts reported as per-op means.
var perOpCounts = []struct{ name, unit string }{
	{"core.fit.matrix_mb", "MB"},
	{"core.assess.passes", "count"},
	{"enrich.elements", "count"},
	{"embed.elements", "count"},
	{"match.pairs", "count"},
	{"match.reduction_ratio", "ratio"},
	{"exchange.requests", "count"},
	{"core.delta.reused", "count"},
	{"core.delta.rescored", "count"},
}

// extraLayers are workload-level values supplied by the instance.
var extraLayers = []struct{ name, unit string }{
	{"exchange.server.assess_ms", "ms"},
	{"exchange.delta_reuse_ratio", "ratio"},
	{"exchange.delta_passes", "count"},
	{"exchange.coalesced", "count"},
	{"exchange.shed", "count"},
	{"exchange.retries", "count"},
	{"checkpoint.state_bytes", "bytes"},
	{"checkpoint.registry_bytes", "bytes"},
	{"scope_f1", "ratio"},
	{"match_f1", "ratio"},
}

// layerReport turns the traced ops, their spans and the run's metrics
// registry into the per-layer metric list.
func layerReport(samples []opSample, spans []span, reg *obs.Registry, extras map[string]float64) []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	byOp := layerSelfByOp(spans)
	opDur := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			opDur[s.Op] = s.dur()
		}
	}
	busy := func(name string) (ms, share []float64) {
		for _, smp := range samples {
			d := byOp[smp.id][name]
			ms = append(ms, float64(d)/1e6)
			if od := opDur[smp.id]; od > 0 {
				share = append(share, float64(d)/float64(od))
			}
		}
		return ms, share
	}
	for _, name := range busyLayers {
		ms, share := busy(name)
		add(name+".busy_ms", zeroNaN(median(ms)), "ms")
		add(name+".share", zeroNaN(median(share)), "ratio")
	}
	for _, st := range stepLayers {
		ms, _ := busy(st.span)
		add(st.metric, zeroNaN(median(ms)), "ms")
	}

	add("core.train.components", ratio(countTotal(samples, "core.train.components"), countTotal(samples, "core.train.models")), "count")
	add("core.assess.kept_ratio", ratio(countTotal(samples, "core.assess.kept"), countTotal(samples, "core.assess.elements")), "ratio")
	for _, c := range perOpCounts {
		add(c.name, countPerOp(samples, c.name), c.unit)
	}

	// Exchange hops: the client round trip, the handler time measured by
	// the hub-side wrapper, and the transport remainder, per request.
	var rt, handler, transport []float64
	serverOf := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "exchange.server" {
			serverOf[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		if s.Name != "exchange.client" {
			continue
		}
		rt = append(rt, float64(s.dur())/1e6)
		if h, ok := serverOf[s.ID]; ok {
			handler = append(handler, float64(h)/1e6)
			transport = append(transport, float64(s.dur()-h)/1e6)
		}
	}
	add("exchange.client.roundtrip_ms", zeroNaN(median(rt)), "ms")
	add("exchange.server.handler_ms", zeroNaN(median(handler)), "ms")
	add("exchange.transport_ms", zeroNaN(median(transport)), "ms")
	reqs := countTotal(samples, "exchange.requests")
	add("exchange.request_bytes", ratio(countTotal(samples, "exchange.request_bytes"), reqs), "bytes")
	add("exchange.response_bytes", ratio(countTotal(samples, "exchange.response_bytes"), reqs), "bytes")

	// Worker pool, from the run's registry.
	snap := reg.Snapshot()
	q, t := snap.Histograms["parallel.queue_wait"], snap.Histograms["parallel.task"]
	add("parallel.queue_wait_ms", float64(q.MeanNS())/1e6, "ms")
	add("parallel.task_ms", float64(t.MeanNS())/1e6, "ms")
	add("parallel.task_max_ms", float64(t.MaxNS)/1e6, "ms")
	add("parallel.items", ratio(float64(snap.Counters["parallel.items"]), float64(len(samples))), "count")

	for _, e := range extraLayers {
		add(e.name, extras[e.name], e.unit)
	}
	for _, ph := range []string{"update", "reassess"} {
		add(ph+"_p50_ms", zeroNaN(median(phaseMS(samples, ph))), "ms")
	}
	return out
}

// countTotal sums one per-op count over the samples.
func countTotal(samples []opSample, name string) float64 {
	total := 0.0
	for _, s := range samples {
		total += s.out.counts[name]
	}
	return total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN maps the NaN of an empty sample to 0 (a layer the workload never
// entered).
func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
