package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

// A hand-built op: root [0,100) with a sequential child a [10,30), and two
// overlapping children b [40,70) and c [50,90); b has its own child
// d [45,55) and a child e [60,80) that overlaps d not at all.
func handTree() []span {
	return []span{
		{ID: 1, Parent: 0, Op: 7, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Op: 7, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Op: 7, Name: "b", Start: 40 * ms, End: 70 * ms},
		{ID: 4, Parent: 1, Op: 7, Name: "c", Start: 50 * ms, End: 90 * ms},
		{ID: 5, Parent: 3, Op: 7, Name: "d", Start: 45 * ms, End: 55 * ms},
		{ID: 6, Parent: 3, Op: 7, Name: "d", Start: 60 * ms, End: 80 * ms}, // runs past its parent
	}
}

func TestSelfTimesOnHandTree(t *testing.T) {
	self := selfTimes(handTree())
	want := map[int64]time.Duration{
		1: 100*ms - (20*ms + 50*ms), // children cover [10,30) ∪ [40,90)
		2: 20 * ms,
		3: 30*ms - (10*ms + 10*ms), // d covers [45,55) ∪ [60,70) within b
		4: 40 * ms,
		5: 10 * ms,
		6: 20 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	byOp := layerSelfByOp(handTree())
	if got := byOp[7]["d"]; got != 30*ms {
		t.Errorf("layer d self = %v, want 30ms (summed over its spans)", got)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	h := r.start(1, nil, "op")
	h.end()
	r.add(span{ID: 1})
}

func TestRecorderNestsAndWritesJSONL(t *testing.T) {
	r := newRecorder()
	root := r.start(3, nil, "op")
	child := r.start(3, root, "core.fit")
	child.end()
	root.end()
	spans := r.snapshot()
	if len(spans) != 2 || spans[0].Name != "op" || spans[1].Parent != spans[0].ID || spans[1].Op != 3 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d", len(lines))
	}
	var got struct {
		Name   string `json:"name"`
		Parent int64  `json:"parent"`
		SelfNS int64  `json:"self_ns"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "core.fit" || got.SelfNS != got.End-got.Start {
		t.Fatalf("leaf span line %+v: self time must equal its duration", got)
	}
}
