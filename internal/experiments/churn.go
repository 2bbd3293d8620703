package experiments

// Evolving-schema churn benchmark (DESIGN.md §15): the same churn schedule
// is served two ways — the cold path retrains every schema and reassesses
// everything after each change, the incremental path refits only the
// evolved schema and delta-assesses — and both must produce identical
// verdicts every round. The headline metric is the wall-time speedup of
// incremental over full at OC3-FO scale, where three small vendor schemas
// evolve next to the large static Formula One schema: exactly the shape
// the paper's production argument needs, since a cold retrain pays for the
// whole corpus while an evolution is local to one schema.

import (
	"context"
	"fmt"
	"math/rand"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// ChurnBenchConfig sizes the churn benchmark.
type ChurnBenchConfig struct {
	// Rounds is the number of churn rounds (default 6).
	Rounds int
	// BatchAdd is the number of elements added on an add round (default 4).
	BatchAdd int
	// V is the explained-variance target (default 0.8).
	V float64
	// Seed drives the synthetic element signatures.
	Seed int64
	// Workers bounds the scoper pools (0 = GOMAXPROCS).
	Workers int
}

func (c ChurnBenchConfig) withDefaults() ChurnBenchConfig {
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.BatchAdd <= 0 {
		c.BatchAdd = 4
	}
	if c.V <= 0 || c.V > 1 {
		c.V = 0.8
	}
	return c
}

// ChurnBenchResult carries the churn benchmark's timings and evidence.
type ChurnBenchResult struct {
	// Rounds is the executed churn-round count.
	Rounds int
	// UpdateNS is the total wall time of the incremental mutations
	// (AddElements / RemoveElements, including the single-schema refits).
	UpdateNS int64
	// DeltaAssessNS is the total wall time of the AssessDelta rounds.
	DeltaAssessNS int64
	// FullNS is the total wall time of the cold path: from-scratch Scoper
	// construction plus a full Scope, once per round.
	FullNS int64
	// Speedup is FullNS / (UpdateNS + DeltaAssessNS).
	Speedup float64
	// Rescored and Reused total the delta reports over all rounds; their
	// sum per round equals the full path's pass count, which is how the
	// report proves delta assessment did strictly less scoring work.
	Rescored, Reused int
	// VerdictsMatch reports that every round's delta verdicts equalled the
	// cold path's. RunChurnBench also fails hard on a mismatch; the metric
	// makes the evidence visible in BENCH_tables.json.
	VerdictsMatch bool
}

// churnBatch fabricates one batch of new elements for schema name, with
// signatures drawn from the scale of the schema's existing rows so the
// synthetic elements are plausible under its model.
func churnBatch(rng *rand.Rand, set *embed.SignatureSet, round, count int) *embed.SignatureSet {
	d := set.Matrix.Cols()
	name := set.IDs[0].Schema
	ids := make([]schema.ElementID, count)
	m := linalg.NewDense(count, d)
	base := rng.Intn(set.Len())
	for i := 0; i < count; i++ {
		ids[i] = schema.AttributeID(name, "churn", fmt.Sprintf("r%d_e%d", round, i))
		src := set.Matrix.RowView((base + i) % set.Len())
		row := m.RowView(i)
		for j := range row {
			row[j] = src[j] + 0.01*rng.NormFloat64()
		}
	}
	return &embed.SignatureSet{IDs: ids, Matrix: m}
}

// RunChurnBench drives the evolving-schema churn schedule over an encoded
// dataset: each round evolves one of the schemas (rotating; with OC3-FO
// the large Formula One schema stays static, as an unrelated schema
// would), then assesses the corpus both incrementally and cold. Verdicts
// must match every round or the benchmark errors.
func RunChurnBench(cfg ChurnBenchConfig, enc *Encoded) (*ChurnBenchResult, error) {
	cfg = cfg.withDefaults()
	if len(enc.Sets) < 2 {
		return nil, fmt.Errorf("experiments: churn bench needs ≥ 2 schemas, got %d", len(enc.Sets))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctx := context.Background()

	// The incremental scoper persists across rounds; its initial fit is not
	// timed (both paths start from the same trained corpus).
	inc, err := core.NewScoperContext(ctx, cfg.Workers, enc.Sets, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	// Warm the delta cache so round timings measure steady-state delta
	// assessment, not the first full scoring pass.
	if _, _, err := inc.AssessDelta(ctx, cfg.V); err != nil {
		return nil, err
	}

	// Rotate churn over all schemas except the largest, which stays static
	// — evolving the biggest schema is a full retrain in either path, while
	// the production case is local evolution against a large stable corpus.
	largest := 0
	for i, set := range enc.Sets {
		if set.Len() > enc.Sets[largest].Len() {
			largest = i
		}
	}
	var targets []int
	for i := range enc.Sets {
		if i != largest || len(enc.Sets) == 2 {
			targets = append(targets, i)
		}
	}

	res := &ChurnBenchResult{Rounds: cfg.Rounds, VerdictsMatch: true}
	added := make(map[int][]schema.ElementID) // churn-born elements per schema
	for round := 0; round < cfg.Rounds; round++ {
		i := targets[round%len(targets)]

		// Mutate: mostly additions, removing earlier churn-born elements on
		// every third round so the removal path is exercised too.
		sw := obs.NewStopwatch()
		if round%3 == 2 && len(added[i]) >= 2 {
			drop := added[i][:2]
			added[i] = added[i][2:]
			if err := inc.RemoveElements(i, drop...); err != nil {
				return nil, fmt.Errorf("experiments: churn round %d remove: %w", round, err)
			}
		} else {
			batch := churnBatch(rng, inc.Sets()[i], round, cfg.BatchAdd)
			if err := inc.AddElements(i, batch); err != nil {
				return nil, fmt.Errorf("experiments: churn round %d add: %w", round, err)
			}
			added[i] = append(added[i], batch.IDs...)
		}
		res.UpdateNS += int64(sw.Elapsed())

		sw = obs.NewStopwatch()
		deltaKeep, rep, err := inc.AssessDelta(ctx, cfg.V)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn round %d delta assess: %w", round, err)
		}
		res.DeltaAssessNS += int64(sw.Elapsed())
		res.Rescored += rep.Rescored
		res.Reused += rep.Reused

		// Cold path: retrain every schema from scratch and reassess all.
		sw = obs.NewStopwatch()
		cold, err := core.NewScoperContext(ctx, cfg.Workers, inc.Sets(), core.AssessConfig{})
		if err != nil {
			return nil, fmt.Errorf("experiments: churn round %d cold retrain: %w", round, err)
		}
		coldKeep, err := cold.ScopeContext(ctx, cfg.V)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn round %d cold scope: %w", round, err)
		}
		res.FullNS += int64(sw.Elapsed())

		if len(deltaKeep) != len(coldKeep) {
			res.VerdictsMatch = false
			return nil, fmt.Errorf("experiments: churn round %d: %d delta verdicts vs %d cold", round, len(deltaKeep), len(coldKeep))
		}
		for id, want := range coldKeep {
			if deltaKeep[id] != want {
				res.VerdictsMatch = false
				return nil, fmt.Errorf("experiments: churn round %d: verdict for %s diverged (delta %v, cold %v)",
					round, id, deltaKeep[id], want)
			}
		}
	}
	if incTotal := res.UpdateNS + res.DeltaAssessNS; incTotal > 0 {
		res.Speedup = float64(res.FullNS) / float64(incTotal)
	}
	return res, nil
}
