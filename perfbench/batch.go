package main

// The batch workload paper_oc3fo (Algorithm 1 + Algorithm 2 + SIM matching
// on the paper's OC3-FO scenario) and the traced layer calls it shares with
// evolve_churn.

import (
	"context"
	"fmt"

	"collabscope"
	"collabscope/internal/core"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/enrich"
	"collabscope/internal/match"
	"collabscope/internal/metrics"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
)

// Shape of the pipelines: the paper's dimension and settings, run on one
// core. The measured pipelines and the hub use one worker (main also pins
// GOMAXPROCS to 1); the correctness references run with two, so a result
// that depended on the schedule would show as a mismatch.
const (
	benchDim      = 768
	benchWorkers  = 1
	refWorkers    = 2
	paperVariance = 0.8
	simThreshold  = 0.6
)

func newPipeline(workers int, enrichers ...collabscope.Enricher) *collabscope.Pipeline {
	opts := []collabscope.Option{collabscope.WithDimension(benchDim), collabscope.WithParallelism(workers)}
	if len(enrichers) > 0 {
		opts = append(opts, collabscope.WithEnrichers(enrichers...))
	}
	return collabscope.New(opts...)
}

// ---------------------------------------------------------------------------
// paper_oc3fo

type paperRef struct {
	keep  map[schema.ElementID]bool
	pairs map[match.Pair]bool
}

type paperInstance struct {
	data *datasets.Dataset
	p    *collabscope.Pipeline
	sim  collabscope.Matcher
	ref  paperRef
	// scopeF1 and matchF1 score the reference against the dataset labels.
	scopeF1, matchF1 float64
}

func setupPaper(ctx context.Context, seed int64, _ string, _ bool) (instance, error) {
	in := &paperInstance{data: rotateOC3FO(seed), p: newPipeline(benchWorkers), sim: collabscope.NewSimMatcher(simThreshold)}
	if _, err := in.op(ctx, nil, 0, nil); err != nil { // warm-up
		return nil, err
	}
	return in, nil
}

// run is the public-API op: CollaborativeScope then SIM matching over the
// streamlined schemas.
func paperRun(p *collabscope.Pipeline, sim collabscope.Matcher, schemas []*schema.Schema) (map[schema.ElementID]bool, []match.Pair, error) {
	res, err := p.CollaborativeScope(schemas, paperVariance)
	if err != nil {
		return nil, nil, err
	}
	return res.Keep, p.Match(sim, res.Streamlined), nil
}

func (in *paperInstance) reference(context.Context) error {
	keep, pairs, err := paperRun(newPipeline(refWorkers), in.sim, in.data.Schemas)
	if err != nil {
		return err
	}
	in.ref = paperRef{keep: keep, pairs: pairSet(pairs)}
	in.scopeF1 = scopeF1(keep, in.data.Labels())
	in.matchF1 = collabscope.EvaluateMatch(pairs, in.data.Truth, in.data.Schemas).F1
	return nil
}

func (in *paperInstance) op(ctx context.Context, rec *recorder, opID int64, root *handle) (outcome, error) {
	var keep map[schema.ElementID]bool
	var pairs []match.Pair
	var counts map[string]float64
	var err error
	if rec == nil {
		keep, pairs, err = paperRun(in.p, in.sim, in.data.Schemas)
	} else {
		keep, pairs, counts, err = in.traced(ctx, rec, opID, root)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{counts: counts, verify: func() error {
		if err := sameVerdicts(in.ref.keep, keep); err != nil {
			return err
		}
		return samePairs(in.ref.pairs, pairs)
	}}, nil
}

// traced is the op rebuilt from the layer calls CollaborativeScope and
// Match make: encode → fit → train → assess, then encode the streamlined
// schemas → match.
func (in *paperInstance) traced(ctx context.Context, rec *recorder, opID int64, root *handle) (map[schema.ElementID]bool, []match.Pair, map[string]float64, error) {
	counts := map[string]float64{}
	sets, err := encodeTraced(ctx, rec, opID, root, in.p.Encoder(), nil, in.data.Schemas, counts)
	if err != nil {
		return nil, nil, nil, err
	}
	scoper, err := fitTraced(ctx, rec, opID, root, sets, counts)
	if err != nil {
		return nil, nil, nil, err
	}
	keep, err := scopeTraced(ctx, rec, opID, root, scoper, paperVariance, counts)
	if err != nil {
		return nil, nil, nil, err
	}
	streamlined := make([]*schema.Schema, len(in.data.Schemas))
	for i, s := range in.data.Schemas {
		streamlined[i] = s.Subset(keep)
	}
	sets2, err := encodeTraced(ctx, rec, opID, root, in.p.Encoder(), nil, streamlined, counts)
	if err != nil {
		return nil, nil, nil, err
	}
	h := rec.start(opID, root, "match")
	pairs, err := match.MatchAllContext(ctx, benchWorkers, in.sim, sets2)
	h.end()
	if err != nil {
		return nil, nil, nil, err
	}
	counts["match.pairs"] = float64(len(pairs))
	counts["match.reduction_ratio"] = collabscope.EvaluateMatch(pairs, in.data.Truth, in.data.Schemas).RR
	return keep, pairs, counts, nil
}

func (in *paperInstance) info() []metric {
	return []metric{{"scope_f1", in.scopeF1, "ratio"}, {"match_f1", in.matchF1, "ratio"}}
}

func (in *paperInstance) layerExtras() map[string]float64 {
	return map[string]float64{"scope_f1": in.scopeF1, "match_f1": in.matchF1}
}

func (in *paperInstance) close() {}

// ---------------------------------------------------------------------------
// Traced layer calls shared by the workloads.

// encodeTraced mirrors Pipeline.EncodeAll: each schema is enriched (when
// enrichers are set) and encoded, under an "enrich" and an "embed" span.
func encodeTraced(ctx context.Context, rec *recorder, opID int64, parent *handle, enc embed.Encoder,
	enrichers []collabscope.Enricher, schemas []*schema.Schema, counts map[string]float64) ([]*embed.SignatureSet, error) {
	sets := make([]*embed.SignatureSet, len(schemas))
	for i, s := range schemas {
		var set *embed.SignatureSet
		var err error
		if len(enrichers) == 0 {
			h := rec.start(opID, parent, "embed")
			set, err = embed.EncodeSchemaContext(ctx, benchWorkers, enc, s)
			h.end()
		} else {
			h := rec.start(opID, parent, "enrich")
			els := enrich.Schema(ctx, enrichers, s)
			h.end()
			counts["enrich.elements"] += float64(len(els))
			h = rec.start(opID, parent, "embed")
			set, err = embed.EncodeElementsContext(ctx, benchWorkers, enc, els)
			h.end()
		}
		if err != nil {
			return nil, err
		}
		counts["embed.elements"] += float64(set.Len())
		sets[i] = set
	}
	return sets, nil
}

// encodeOneTraced is encodeTraced for one schema.
func encodeOneTraced(ctx context.Context, rec *recorder, opID int64, parent *handle, enc embed.Encoder,
	enrichers []collabscope.Enricher, s *schema.Schema, counts map[string]float64) (*embed.SignatureSet, error) {
	sets, err := encodeTraced(ctx, rec, opID, parent, enc, enrichers, []*schema.Schema{s}, counts)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// fitTraced runs Algorithm 1's per-schema decompositions under "core.fit".
func fitTraced(ctx context.Context, rec *recorder, opID int64, parent *handle, sets []*embed.SignatureSet, counts map[string]float64) (*core.Scoper, error) {
	h := rec.start(opID, parent, "core.fit")
	scoper, err := core.NewScoperContext(ctx, benchWorkers, sets, core.AssessConfig{})
	h.end()
	for _, set := range sets {
		counts["core.fit.matrix_mb"] += float64(set.Matrix.Rows()*set.Matrix.Cols()*8) / (1 << 20)
	}
	return scoper, err
}

// scopeTraced mirrors Scoper.ScopeContext: train every schema's model at v
// ("core.train"), then assess each schema against the others' models with
// the per-schema passes fanned out over the pool ("core.assess").
func scopeTraced(ctx context.Context, rec *recorder, opID int64, parent *handle, scoper *core.Scoper, v float64, counts map[string]float64) (map[schema.ElementID]bool, error) {
	h := rec.start(opID, parent, "core.train")
	models, err := scoper.ModelsContext(ctx, v)
	h.end()
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		counts["core.train.components"] += float64(m.Components())
		counts["core.train.models"]++
	}
	sets := scoper.Sets()
	verdicts := make([]map[schema.ElementID]bool, len(sets))
	h = rec.start(opID, parent, "core.assess")
	err = parallel.ForEach(ctx, benchWorkers, len(sets), func(i int) error {
		foreign := make([]*core.Model, 0, len(models)-1)
		for j, m := range models {
			if j != i {
				foreign = append(foreign, m)
			}
		}
		vd, aerr := core.AssessContext(ctx, 1, sets[i], foreign, core.AssessConfig{})
		verdicts[i] = vd
		return aerr
	})
	h.end()
	if err != nil {
		return nil, err
	}
	keep := map[schema.ElementID]bool{}
	for i, vd := range verdicts {
		counts["core.assess.passes"] += float64(sets[i].Len() * (len(sets) - 1))
		for id, ok := range vd {
			keep[id] = ok
			counts["core.assess.elements"]++
			if ok {
				counts["core.assess.kept"]++
			}
		}
	}
	return keep, nil
}

// ---------------------------------------------------------------------------
// Checks and scores.

// sameVerdicts reports the first difference between two verdict maps.
func sameVerdicts(want, got map[schema.ElementID]bool) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d verdicts, reference has %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			return fmt.Errorf("no verdict for %s", id)
		}
		if g != w {
			return fmt.Errorf("verdict for %s is %v, reference %v", id, g, w)
		}
	}
	return nil
}

func pairSet(pairs []match.Pair) map[match.Pair]bool {
	out := make(map[match.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[p.Canonical()] = true
	}
	return out
}

func samePairs(want map[match.Pair]bool, got []match.Pair) error {
	g := pairSet(got)
	if len(g) != len(want) {
		return fmt.Errorf("%d pairs, reference has %d", len(g), len(want))
	}
	for p := range g {
		if !want[p] {
			return fmt.Errorf("pair %s–%s not in reference", p.A, p.B)
		}
	}
	return nil
}

// scopeF1 scores linkability verdicts against ground-truth labels.
func scopeF1(keep, labels map[schema.ElementID]bool) float64 {
	var c metrics.Confusion
	for id, label := range labels {
		c.Observe(keep[id], label)
	}
	return c.F1()
}
