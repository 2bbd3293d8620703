package main

// An in-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around each call into a layer, kept in memory
// while the run measures, and written out as JSONL when it ends. Times are
// offsets from the recorder's creation, read from an obs.Stopwatch.

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"collabscope/internal/obs"
)

// span is one recorded layer call. Parent is 0 for an op's root span; all
// spans of one op share Op.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans from any number of goroutines. A nil *recorder
// is the untraced mode: every method is a no-op.
type recorder struct {
	clock obs.Stopwatch
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{clock: obs.NewStopwatch()} }

// handle is an open span; end closes it.
type handle struct {
	r  *recorder
	sp span
}

// start opens a span named name under parent (nil for an op root) in op.
func (r *recorder) start(op int64, parent *handle, name string) *handle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	h := &handle{r: r, sp: span{ID: id, Op: op, Name: name, Start: r.clock.Elapsed()}}
	if parent != nil {
		h.sp.Parent = parent.sp.ID
	}
	return h
}

// end closes the span and records it.
func (h *handle) end() {
	if h == nil {
		return
	}
	h.sp.End = h.r.clock.Elapsed()
	h.r.add(h.sp)
}

// add records a finished span, e.g. one measured on the far side of a
// loopback hop.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// newID reserves a span ID for a span recorded later with add.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// snapshot returns the recorded spans in start order.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeJSONL writes one JSON object per span, each with its self time.
func writeJSONL(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		line := struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals (children
// running in parallel are not subtracted twice).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerSelfByOp sums self time per span name within each op: the result
// maps op → name → self time.
func layerSelfByOp(spans []span) map[int64]map[string]time.Duration {
	self := selfTimes(spans)
	out := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Op] = m
		}
		m[s.Name] += self[s.ID]
	}
	return out
}
