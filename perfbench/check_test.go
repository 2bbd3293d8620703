package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"collabscope/internal/match"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

func TestSameVerdictsCatchesCorruption(t *testing.T) {
	a, b := schema.AttributeID("S", "T", "x"), schema.AttributeID("S", "T", "y")
	want := map[schema.ElementID]bool{a: true, b: false}
	if err := sameVerdicts(want, map[schema.ElementID]bool{a: true, b: false}); err != nil {
		t.Fatalf("equal verdicts rejected: %v", err)
	}
	for name, got := range map[string]map[schema.ElementID]bool{
		"flipped": {a: true, b: true},
		"missing": {a: true},
		"renamed": {a: true, schema.AttributeID("S", "T", "z"): false},
	} {
		if sameVerdicts(want, got) == nil {
			t.Errorf("%s verdicts accepted", name)
		}
	}
	p := match.Pair{A: a, B: b}
	if samePairs(pairSet([]match.Pair{p}), []match.Pair{{A: b, B: a}}) != nil {
		t.Error("a pair and its mirror must compare equal")
	}
	if samePairs(pairSet([]match.Pair{p}), nil) == nil {
		t.Error("a lost pair was accepted")
	}
}

// fakeInstance returns a fixed verdict, corrupted on every second op.
type fakeInstance struct {
	want map[schema.ElementID]bool
	n    int
}

func (f *fakeInstance) reference(context.Context) error { return nil }
func (f *fakeInstance) info() []metric                  { return nil }
func (f *fakeInstance) layerExtras() map[string]float64 { return nil }
func (f *fakeInstance) close()                          {}

func (f *fakeInstance) op(context.Context, *recorder, int64, *handle) (outcome, error) {
	f.n++
	got := map[schema.ElementID]bool{}
	for id, v := range f.want {
		got[id] = v != (f.n%2 == 0) // flip every verdict on even ops
	}
	if f.n == 3 {
		return outcome{}, errors.New("op error")
	}
	return outcome{verify: func() error { return sameVerdicts(f.want, got) }}, nil
}

func TestCorruptedVerdictCountsAsFailedOp(t *testing.T) {
	f := &fakeInstance{want: map[schema.ElementID]bool{schema.TableID("S", "T"): true}}
	rep := measureLoop(context.Background(), f, 20*time.Millisecond, nil)
	if rep.attempted < 4 {
		t.Fatalf("only %d ops in 20ms", rep.attempted)
	}
	// Ops 2, 4, 6, … are corrupted and op 3 errors outright.
	wantFailed := rep.attempted/2 + 1
	if rep.failed != wantFailed {
		t.Fatalf("failed = %d of %d, want %d", rep.failed, rep.attempted, wantFailed)
	}
	res := rep.result()
	res.endToEnd(rep)
	for _, m := range res.metrics {
		if m.name == "ok_ratio" && m.value >= 1 {
			t.Fatalf("ok_ratio %v despite failed ops", m.value)
		}
	}
}

// TestWorkloadsTracedMatchUntraced stands every workload up, computes its
// reference, and checks that one untraced and one traced op both pass —
// the traced decomposition reaches the public methods' verdicts.
func TestWorkloadsTracedMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up every workload")
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(ctx, 11, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if err := inst.reference(ctx); err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			tctx := obs.NewContext(ctx, obs.NewRegistry(), nil)
			for i, r := range []*recorder{nil, rec} {
				root := r.start(int64(i+1), nil, "op")
				out, err := inst.op(tctx, r, int64(i+1), root)
				root.end()
				if err == nil {
					err = out.verify()
				}
				if err != nil {
					t.Fatalf("traced=%v: %v", r != nil, err)
				}
			}
			if len(rec.snapshot()) < 3 {
				t.Fatalf("traced op recorded only %d spans", len(rec.snapshot()))
			}
		})
	}
}
