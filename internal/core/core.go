// Package core implements collaborative scoping, the paper's primary
// contribution (Section 3): each schema self-trains a PCA-based
// encoder-decoder over its own element signatures (Algorithm 1), publishes
// the model — mean μ_k, principal components PC_k retained to a globally
// agreed explained variance v, and local linkability range l_k (the maximum
// training reconstruction error, Definition 3) — and every schema assesses
// its own elements against the models of all other schemas (Algorithm 2):
// an element is linkable iff some foreign model reconstructs it with an
// error within that model's linkability range (Definition 4).
//
// Only models are exchanged between schemas, never elements, making the
// method distributed and privacy-friendly.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/metrics"
	"collabscope/internal/obs"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
)

// ErrDegenerateModel marks a training run whose fitted model is unusable:
// no principal components were retained, or the linkability range l_k
// (Definition 3) came out non-finite. Such a model would silently poison
// every Algorithm 2 verdict computed against it, so training fails loudly
// instead of publishing it. (A zero range from bit-identical training
// signatures is NOT degenerate — it is the documented conservative floor.)
var ErrDegenerateModel = errors.New("core: degenerate model")

// Model is the local self-supervised encoder-decoder M_k = {μ_k, PC_k, l_k}
// of Algorithm 1, as exchanged between schemas.
type Model struct {
	// Schema names the schema this model was trained on.
	Schema string
	// Variance is the global explained-variance target v the model was
	// truncated at; 0 is the sentinel of fixed-component ablation models
	// (TrainFixedComponents), which have no variance target.
	Variance float64

	pca *linalg.PCA
	// Range is the local linkability range l_k: the maximum reconstruction
	// MSE over the model's own training signatures (Definition 3).
	Range float64
}

// Train runs Algorithm 1 on one schema's signature set with the global
// explained variance v ∈ (0, 1], returning the local model. The set must
// belong to a single schema: the published model is stamped with that
// schema's name, and Algorithm 2 relies on the stamp to skip a schema's own
// model during assessment — a mixed set would publish a mislabeled model
// that silently self-matches.
//
// Degenerate training sets are legal but conservative: a single signature
// (or a set of bit-identical signatures) reconstructs itself exactly, so
// the linkability range l_k — the MAXIMUM training reconstruction error of
// Definition 3 — collapses to 0 and the model accepts only bit-exact
// reconstructions during assessment. Fewer foreign acceptances mean fewer
// elements kept, never wrong extra matches, which is the graceful
// degradation the paper's design calls for.
func Train(set *embed.SignatureSet, v float64) (*Model, error) {
	name, err := singleSchemaName(set)
	if err != nil {
		return nil, err
	}
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	pca, err := linalg.FitPCAChecked(set.Matrix, v)
	if err != nil {
		return nil, trainError(name, set, err)
	}
	m := &Model{Schema: name, Variance: v, pca: pca}
	m.Range = maxOf(pca.ReconstructionErrors(set.Matrix))
	return m, checkModel(m)
}

// trainError wraps a numeric failure with the offending schema — and, for
// non-finite input, the offending element — so the taxonomy errors carried
// up through the pipeline and CLIs name what actually broke.
func trainError(name string, set *embed.SignatureSet, err error) error {
	if errors.Is(err, linalg.ErrNonFinite) {
		for i := 0; i < set.Len(); i++ {
			if j := linalg.FirstNonFinite(set.Matrix.RowView(i)); j >= 0 {
				return fmt.Errorf("core: train schema %q: signature of %s is non-finite at dimension %d: %w",
					name, set.IDs[i], j, err)
			}
		}
	}
	return fmt.Errorf("core: train schema %q: %w", name, err)
}

// checkModel enforces the ErrDegenerateModel taxonomy on a freshly trained
// model before it can be published or assessed against.
func checkModel(m *Model) error {
	if m.pca.NComp == 0 {
		return fmt.Errorf("%w: schema %q retained no principal components", ErrDegenerateModel, m.Schema)
	}
	if math.IsNaN(m.Range) || math.IsInf(m.Range, 0) {
		return fmt.Errorf("%w: schema %q has non-finite linkability range %v", ErrDegenerateModel, m.Schema, m.Range)
	}
	return nil
}

// singleSchemaName validates that every signature in the set belongs to the
// same schema and returns that schema's name.
func singleSchemaName(set *embed.SignatureSet) (string, error) {
	if set.Len() == 0 {
		return "", fmt.Errorf("core: cannot train on an empty signature set")
	}
	name := set.IDs[0].Schema
	for _, id := range set.IDs[1:] {
		if id.Schema != name {
			return "", fmt.Errorf("core: training set mixes schemas %q and %q — a model is trained on one schema's signatures only",
				name, id.Schema)
		}
	}
	return name, nil
}

// TrainFixedComponents is the ablation variant of Train that retains a
// fixed number of principal components instead of targeting a shared
// explained variance. The paper argues the variance target is the right
// shared knob because schemas differ in volume and design; this variant
// lets the ablation benches quantify that claim.
func TrainFixedComponents(set *embed.SignatureSet, n int) (*Model, error) {
	name, err := singleSchemaName(set)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: need at least 1 component, got %d", n)
	}
	full, err := linalg.FitPCAChecked(set.Matrix, 1.0)
	if err != nil {
		return nil, trainError(name, set, err)
	}
	if n > full.Components.Rows() {
		n = full.Components.Rows()
	}
	pca := &linalg.PCA{
		Mean:       full.Mean,
		Components: componentSlice(full, n),
		Singular:   full.Singular,
		Explained:  full.Explained,
		Cumulative: full.Cumulative,
		NComp:      n,
	}
	m := &Model{Schema: name, Variance: 0, pca: pca}
	m.Range = maxOf(pca.ReconstructionErrors(set.Matrix))
	return m, checkModel(m)
}

func componentSlice(full *linalg.PCA, n int) *linalg.Dense {
	comp := linalg.NewDense(n, len(full.Mean))
	for i := 0; i < n; i++ {
		copy(comp.RowView(i), full.Components.RowView(i))
	}
	return comp
}

// Components returns the number of retained principal components.
func (m *Model) Components() int { return m.pca.NComp }

// Dim returns the signature dimensionality the model was trained on —
// the width signatures must have to be assessed against it.
func (m *Model) Dim() int { return len(m.pca.Mean) }

// Errors returns the reconstruction MSE of each signature row under this
// model's encoder-decoder — the outlier scores of Definition 4.
func (m *Model) Errors(x *linalg.Dense) []float64 {
	return m.pca.ReconstructionErrors(x)
}

// ErrorsInto is Errors with caller-owned result and encode–decode scratch
// storage (see linalg.PCAScratch); with a warm scratch a batch assessment
// pass allocates nothing beyond the verdicts.
func (m *Model) ErrorsInto(x *linalg.Dense, dst []float64, sc *linalg.PCAScratch) []float64 {
	return m.pca.ReconstructionErrorsInto(x, dst, sc)
}

// Accepts reports whether a signature reconstructs within the model's local
// linkability range, i.e. whether this model recognises the element as
// linkable (Definition 4).
func (m *Model) Accepts(sig []float64) bool {
	x := linalg.NewDense(1, len(sig))
	copy(x.RowView(0), sig)
	return m.Errors(x)[0] <= m.Range
}

// AcceptanceMode selects how Algorithm 2 combines foreign-model verdicts.
type AcceptanceMode int

// Acceptance modes. The paper's Algorithm 2 appends an element as soon as
// ANY foreign model accepts it (union). AllModels is the stricter
// intersection variant evaluated in the ablation benches.
const (
	AnyModel AcceptanceMode = iota
	AllModels
)

// AssessConfig tunes the linkability assessment.
type AssessConfig struct {
	// Mode is the verdict combination across foreign models.
	Mode AcceptanceMode
	// RelaxEpsilon widens each model's linkability range to l·(1+ε). The
	// paper reports that relaxation brings no improvement; the ablation
	// bench quantifies that claim.
	RelaxEpsilon float64
	// ApproxMaxRank, when positive, replaces the exact per-schema SVD
	// with a randomized decomposition capped at this many components —
	// the scale path for corpora (e.g. record-level entity resolution)
	// where the exact Jacobi SVD is too slow. Variance targets then
	// saturate at the captured spectrum.
	ApproxMaxRank int
	// Seed drives the randomized decomposition.
	Seed int64
}

// Assess runs Algorithm 2: the local schema's signatures are reconstructed
// by every foreign model; elements whose reconstruction error falls within
// a foreign model's linkability range are linkable. The result maps each
// local element to its linkability verdict.
func Assess(local *embed.SignatureSet, foreign []*Model) map[schema.ElementID]bool {
	return AssessWith(local, foreign, AssessConfig{})
}

// AssessWith is Assess with explicit configuration.
func AssessWith(local *embed.SignatureSet, foreign []*Model, cfg AssessConfig) map[schema.ElementID]bool {
	verdict, _ := AssessContext(context.Background(), 0, local, foreign, cfg)
	return verdict
}

// AssessContext is AssessWith with cancellation and an explicit worker
// count (≤ 0 means GOMAXPROCS). The element-by-foreign-model error passes —
// the |S|·|M| term of the paper's complexity analysis — fan out per model;
// verdicts are folded sequentially in model order, so the result is
// identical for any worker count.
func AssessContext(ctx context.Context, workers int, local *embed.SignatureSet, foreign []*Model, cfg AssessConfig) (map[schema.ElementID]bool, error) {
	ctx, sp := obs.Start(ctx, "core.assess")
	sp.Annotate("elements", int64(local.Len()))
	sp.Annotate("models", int64(len(foreign)))
	defer sp.End()
	errsByModel, err := parallel.Map(ctx, workers, foreign, func(_ int, m *Model) ([]float64, error) {
		return m.ErrorsInto(local.Matrix, make([]float64, local.Len()), nil), nil
	})
	if err != nil {
		return nil, err
	}
	verdict := make(map[schema.ElementID]bool, local.Len())
	if cfg.Mode == AllModels {
		for _, id := range local.IDs {
			verdict[id] = len(foreign) > 0
		}
	} else {
		for _, id := range local.IDs {
			verdict[id] = false
		}
	}
	for k, m := range foreign {
		bound := m.Range * (1 + cfg.RelaxEpsilon)
		for i, e := range errsByModel[k] {
			accepted := e <= bound
			id := local.IDs[i]
			if cfg.Mode == AllModels {
				verdict[id] = verdict[id] && accepted
			} else {
				verdict[id] = verdict[id] || accepted
			}
		}
	}
	return verdict, nil
}

// Scoper orchestrates collaborative scoping across a set of schemas. It
// fits each schema's full PCA once, so sweeping the explained variance v is
// cheap (truncation only).
type Scoper struct {
	sets    []*embed.SignatureSet
	full    []*linalg.PCA
	cfg     AssessConfig
	workers int

	// version holds each schema's model version: 1 at construction, bumped
	// by every successful incremental mutation (DESIGN.md §15). Delta
	// assessment keys cached scores on these.
	version []int64
	// delta is the AssessDelta score cache; nil until the first delta round.
	delta *deltaCache
}

// NewScoper prepares collaborative scoping over the schemas' signature
// sets. Every set must be non-empty.
func NewScoper(sets []*embed.SignatureSet) (*Scoper, error) {
	return NewScoperWith(sets, AssessConfig{})
}

// NewScoperWith is NewScoper with explicit assessment configuration.
func NewScoperWith(sets []*embed.SignatureSet, cfg AssessConfig) (*Scoper, error) {
	return NewScoperContext(context.Background(), 0, sets, cfg)
}

// NewScoperContext is NewScoperWith with cancellation and an explicit
// worker count (≤ 0 means GOMAXPROCS). The per-schema decompositions fan
// out over the pool, and the worker count is remembered for every
// subsequent training and assessment round of this Scoper.
func NewScoperContext(ctx context.Context, workers int, sets []*embed.SignatureSet, cfg AssessConfig) (*Scoper, error) {
	if len(sets) < 2 {
		return nil, fmt.Errorf("core: collaborative scoping needs ≥ 2 schemas, got %d", len(sets))
	}
	ctx, sp := obs.Start(ctx, "core.fit")
	sp.Annotate("schemas", int64(len(sets)))
	defer sp.End()
	s := &Scoper{sets: sets, cfg: cfg, workers: workers, version: make([]int64, len(sets))}
	for i := range s.version {
		s.version[i] = 1
	}
	dim := -1
	for i, set := range sets {
		if set.Len() == 0 {
			return nil, fmt.Errorf("core: signature set %d is empty", i)
		}
		if dim < 0 {
			dim = set.Matrix.Cols()
		} else if set.Matrix.Cols() != dim {
			return nil, fmt.Errorf("core: signature set %d has dimension %d, others %d — all schemas must share the global encoder",
				i, set.Matrix.Cols(), dim)
		}
	}
	s.full = make([]*linalg.PCA, len(sets))
	err := parallel.ForEach(ctx, workers, len(sets), func(i int) error {
		pca, ferr := s.fit(sets[i])
		if ferr != nil {
			return ferr
		}
		s.full[i] = pca
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// fit decomposes one signature set, exactly or via the randomized path.
// Numeric failures — non-finite signatures, a non-converging SVD — surface
// as taxonomy errors naming the schema instead of poisoning the model.
func (s *Scoper) fit(set *embed.SignatureSet) (*linalg.PCA, error) {
	if s.cfg.ApproxMaxRank > 0 {
		if err := linalg.CheckFinite(set.Matrix); err != nil {
			return nil, trainError(set.IDs[0].Schema, set, err)
		}
		return linalg.FitPCAApprox(set.Matrix, 1.0, s.cfg.ApproxMaxRank, s.cfg.Seed), nil
	}
	pca, err := linalg.FitPCAChecked(set.Matrix, 1.0)
	if err != nil {
		return nil, trainError(set.IDs[0].Schema, set, err)
	}
	return pca, nil
}

// UpdateSchema replaces schema i's signature set wholesale after a schema
// evolution and refits only that schema's model — the other schemas'
// expensive SVDs are untouched. The replacement bumps schema i's model
// version and forgets its cached delta scores; for diff-shaped evolutions
// prefer AddElements / RemoveElements, which keep the delta cache warm for
// the unchanged elements.
func (s *Scoper) UpdateSchema(i int, set *embed.SignatureSet) error {
	if i < 0 || i >= len(s.sets) {
		return fmt.Errorf("core: schema index %d out of range %d", i, len(s.sets))
	}
	if set.Len() == 0 {
		return fmt.Errorf("core: updated signature set is empty")
	}
	if set.Matrix.Cols() != s.sets[i].Matrix.Cols() {
		return fmt.Errorf("core: updated set has dimension %d, want %d",
			set.Matrix.Cols(), s.sets[i].Matrix.Cols())
	}
	pca, err := s.fit(set)
	if err != nil {
		return err
	}
	s.sets[i] = set
	s.full[i] = pca
	s.version[i]++
	s.deltaInvalidateSchema(i)
	return nil
}

// Models returns the local models of all schemas at explained variance v.
// Model construction is embarrassingly parallel — each schema trains
// independently, as the paper's complexity analysis notes — so the work
// fans out across schemas.
func (s *Scoper) Models(v float64) ([]*Model, error) {
	return s.ModelsContext(context.Background(), v)
}

// ModelsContext is Models with cancellation; the Scoper's worker count
// bounds the fan-out.
func (s *Scoper) ModelsContext(ctx context.Context, v float64) ([]*Model, error) {
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	ctx, sp := obs.Start(ctx, "core.train")
	sp.Annotate("schemas", int64(len(s.sets)))
	defer sp.End()
	models := make([]*Model, len(s.sets))
	err := parallel.ForEach(ctx, s.workers, len(s.sets), func(i int) error {
		set := s.sets[i]
		pca := s.full[i].Truncate(v)
		m := &Model{Schema: set.IDs[0].Schema, Variance: v, pca: pca}
		m.Range = maxOf(pca.ReconstructionErrors(set.Matrix))
		if cerr := checkModel(m); cerr != nil {
			return cerr
		}
		models[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return models, nil
}

// Scope runs the full collaborative assessment at explained variance v and
// returns the union keep-set over all schemas: every element any foreign
// model recognises as linkable. Per-schema assessments run in parallel,
// mirroring the paper's distributed execution model.
func (s *Scoper) Scope(v float64) (map[schema.ElementID]bool, error) {
	return s.ScopeContext(context.Background(), v)
}

// ScopeContext is Scope with cancellation; per-schema assessments fan out
// over the Scoper's worker pool and the keep-set is folded in schema order,
// so the result is identical for any worker count.
func (s *Scoper) ScopeContext(ctx context.Context, v float64) (map[schema.ElementID]bool, error) {
	ctx, sp := obs.Start(ctx, "core.scope")
	sp.Annotate("schemas", int64(len(s.sets)))
	defer sp.End()
	models, err := s.ModelsContext(ctx, v)
	if err != nil {
		return nil, err
	}
	verdicts := make([]map[schema.ElementID]bool, len(s.sets))
	err = parallel.ForEach(ctx, s.workers, len(s.sets), func(i int) error {
		foreign := make([]*Model, 0, len(models)-1)
		for j, m := range models {
			if j != i {
				foreign = append(foreign, m)
			}
		}
		verdict, aerr := AssessContext(ctx, 1, s.sets[i], foreign, s.cfg)
		if aerr != nil {
			return aerr
		}
		verdicts[i] = verdict
		return nil
	})
	if err != nil {
		return nil, err
	}
	keep := map[schema.ElementID]bool{}
	for _, v := range verdicts {
		for id, linkable := range v {
			keep[id] = linkable
		}
	}
	return keep, nil
}

// Streamline applies Scope and materialises the streamlined schemas S′
// (Definition 2) in the order of the input schemas.
func (s *Scoper) Streamline(schemas []*schema.Schema, v float64) ([]*schema.Schema, error) {
	keep, err := s.Scope(v)
	if err != nil {
		return nil, err
	}
	out := make([]*schema.Schema, len(schemas))
	for i, sch := range schemas {
		out[i] = sch.Subset(keep)
	}
	return out, nil
}

// Sweep evaluates collaborative scoping over a grid of explained-variance
// values against ground-truth labels, one confusion matrix per v.
func (s *Scoper) Sweep(labels map[schema.ElementID]bool, grid []float64) ([]metrics.SweepEntry, error) {
	return s.SweepContext(context.Background(), labels, grid)
}

// SweepContext is Sweep with cancellation between grid points. For
// long-running sweeps that must survive a mid-run crash, see
// SweepCheckpointedContext.
func (s *Scoper) SweepContext(ctx context.Context, labels map[schema.ElementID]bool, grid []float64) ([]metrics.SweepEntry, error) {
	return s.SweepCheckpointedContext(ctx, labels, grid, nil, "")
}

// Evaluate computes the Table-4 AUC summary of collaborative scoping over
// the grid. Unlike global scoping there is no continuous score: the ROC and
// PR observations come from the v sweep itself.
func (s *Scoper) Evaluate(labels map[schema.ElementID]bool, grid []float64, rocLambda float64) (metrics.SweepSummary, error) {
	entries, err := s.Sweep(labels, grid)
	if err != nil {
		return metrics.SweepSummary{}, err
	}
	return metrics.Summarize(entries, rocLambda), nil
}

// PassOperations returns the number of encoder-decoder pass operations of a
// full assessment round: every element passes through the models of the
// k−1 other schemas (the |S|·|M| term of the complexity analysis).
func (s *Scoper) PassOperations() int {
	total := 0
	for _, set := range s.sets {
		total += set.Len() * (len(s.sets) - 1)
	}
	return total
}

func maxOf(v []float64) float64 {
	var m float64
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
