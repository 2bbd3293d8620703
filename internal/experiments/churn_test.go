package experiments

import (
	"testing"

	"collabscope/internal/datasets"
)

// TestChurnBenchVerdictsAndSavings runs the churn schedule at unit-test
// scale: the benchmark itself enforces verdict equality between the delta
// and cold paths every round, so this test asserts the accounting — delta
// assessment reuses work, the incremental path is faster than cold
// retrain+reassess, and both removal and addition rounds executed.
func TestChurnBenchVerdictsAndSavings(t *testing.T) {
	enc := Encode(FastConfig(), datasets.OC3FO())
	res, err := RunChurnBench(ChurnBenchConfig{Seed: 3, Rounds: 6}, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.VerdictsMatch {
		t.Fatal("delta verdicts diverged from the cold path")
	}
	if res.Rounds != 6 {
		t.Fatalf("executed %d rounds, want 6", res.Rounds)
	}
	if res.Reused == 0 || res.Rescored == 0 {
		t.Fatalf("delta accounting rescored=%d reused=%d, want both positive", res.Rescored, res.Reused)
	}
	if res.Rescored >= res.Rescored+res.Reused {
		t.Fatal("delta assessment did not reuse any passes")
	}
	if res.Speedup <= 1 {
		t.Fatalf("incremental speedup %.2f, want > 1 (full %dns vs update %dns + delta %dns)",
			res.Speedup, res.FullNS, res.UpdateNS, res.DeltaAssessNS)
	}
	t.Logf("churn speedup %.1fx (full %dms, update %dms, delta %dms; rescored %d, reused %d)",
		res.Speedup, res.FullNS/1e6, res.UpdateNS/1e6, res.DeltaAssessNS/1e6, res.Rescored, res.Reused)
}

// TestChurnBenchNeedsTwoSchemas pins the validation path.
func TestChurnBenchNeedsTwoSchemas(t *testing.T) {
	enc := Encode(FastConfig(), datasets.OC3FO())
	if _, err := RunChurnBench(ChurnBenchConfig{}, &Encoded{Sets: enc.Sets[:1]}); err == nil {
		t.Fatal("single-schema churn bench accepted")
	}
}
