// Incremental model maintenance (DESIGN.md §15): production schemas churn —
// DDL changes, new tables, dropped columns — and a full PCA retrain plus
// full reassessment per change defeats the point of scoping. This file adds
// the three layers that survive schema evolution:
//
//   - PartialFit / TrainFromPartialFits: mergeable partial fits built on
//     linalg.PCAStats, so sharded training combines by statistics merge.
//   - ModelState: a persistent single-schema incremental trainer (element
//     IDs + signature rows + a model version), with CellStore persistence
//     that resumes bit-identically after a restart.
//   - Scoper.AddElements / RemoveElements plus AssessDelta: in-process
//     incremental maintenance that refits only the changed schema and
//     re-scores only element×model pairs whose verdict can change, with obs
//     counters proving the reuse.
//
// The only maintained state is the rows. Exactness: a refit over fewer rows
// than dimensions runs the exact from-scratch code path on the rows, so the
// refitted state is bit-identical to retraining from zero. When rows
// outnumber dimensions the refit accumulates the sufficient statistics from
// the current rows and fits from them, which matches from-scratch training
// within linalg.StatsFitTolerance. Either way the model is a pure function
// of the current rows, independent of the churn history. Delta assessment
// is exact in both cases: reused scores are the identical float64s a full
// pass would recompute.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
)

// PartialFit is one shard's contribution to a model: the shard's signature
// rows plus their accumulated sufficient statistics. Shards accumulate
// independently; a coordinator merges the statistics (componentwise — rows
// never need to be concatenated for the fit itself).
type PartialFit struct {
	// Set holds the shard's signatures. The rows back the linkability-range
	// computation (Definition 3 needs every training row scored under the
	// final merged model).
	Set *embed.SignatureSet
	// Stats is the shard's accumulated (n, Σx, Σxᵀx).
	Stats *linalg.PCAStats
}

// NewPartialFit accumulates one shard's sufficient statistics. The set must
// be non-empty and single-schema, like any training set.
func NewPartialFit(set *embed.SignatureSet) (*PartialFit, error) {
	if _, err := singleSchemaName(set); err != nil {
		return nil, err
	}
	return &PartialFit{Set: set, Stats: linalg.AccumulateStats(set.Matrix)}, nil
}

// TrainFromPartialFits trains one model from mergeable partial fits: the
// shards' statistics are merged in argument order and the PCA is fitted
// from the merged statistics alone — no shard's rows are revisited for the
// decomposition. The linkability range l_k (Definition 3) is the maximum
// reconstruction error over all shards' rows under the merged model,
// folded in shard order. The result matches Train over the concatenated
// rows within linalg.StatsFitTolerance (pinned by the incremental-exactness
// suite).
func TrainFromPartialFits(v float64, parts ...*PartialFit) (*Model, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no partial fits to train from")
	}
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	name, err := singleSchemaName(parts[0].Set)
	if err != nil {
		return nil, err
	}
	dim := parts[0].Set.Matrix.Cols()
	seen := make(map[schema.ElementID]bool)
	merged := parts[0].Stats.Clone()
	for pi, p := range parts {
		pname, err := singleSchemaName(p.Set)
		if err != nil {
			return nil, err
		}
		if pname != name {
			return nil, fmt.Errorf("core: partial fit %d belongs to schema %q, others to %q", pi, pname, name)
		}
		if p.Set.Matrix.Cols() != dim {
			return nil, fmt.Errorf("core: partial fit %d has dimension %d, others %d", pi, p.Set.Matrix.Cols(), dim)
		}
		if p.Stats == nil || p.Stats.N != p.Set.Len() {
			return nil, fmt.Errorf("core: partial fit %d carries stats over %d rows for %d signatures",
				pi, statsN(p.Stats), p.Set.Len())
		}
		for _, id := range p.Set.IDs {
			if seen[id] {
				return nil, fmt.Errorf("core: element %s appears in more than one partial fit", id)
			}
			seen[id] = true
		}
		if pi > 0 {
			if merged, err = linalg.MergePCAStats(merged, p.Stats); err != nil {
				return nil, fmt.Errorf("core: merge partial fits of schema %q: %w", name, err)
			}
		}
	}
	pca, err := linalg.FitPCAFromStats(merged, v)
	if err != nil {
		return nil, fmt.Errorf("core: train schema %q from merged stats: %w", name, err)
	}
	m := &Model{Schema: name, Variance: v, pca: pca}
	for _, p := range parts {
		if r := maxOf(pca.ReconstructionErrors(p.Set.Matrix)); r > m.Range {
			m.Range = r
		}
	}
	return m, checkModel(m)
}

func statsN(s *linalg.PCAStats) int {
	if s == nil {
		return 0
	}
	return s.N
}

// ---------------------------------------------------------------------------
// Scoper incremental maintenance

// Sets returns the scoper's current signature sets (a copy of the slice;
// the sets themselves are shared and must be treated as read-only). The
// churn benchmark uses it to hand the incrementally maintained state to a
// from-scratch Scoper for comparison.
func (s *Scoper) Sets() []*embed.SignatureSet {
	out := make([]*embed.SignatureSet, len(s.sets))
	copy(out, s.sets)
	return out
}

// ModelVersion returns schema i's model version: 1 after construction,
// bumped by every successful AddElements / RemoveElements / UpdateSchema.
// Delta assessment re-scores exactly the element×model pairs whose version
// pair changed.
func (s *Scoper) ModelVersion(i int) int64 {
	if i < 0 || i >= len(s.version) {
		return 0
	}
	return s.version[i]
}

// checkDeltaSet validates an element batch destined for schema i: same
// schema name, same signature dimensionality, non-empty.
func (s *Scoper) checkDeltaSet(i int, set *embed.SignatureSet) error {
	if i < 0 || i >= len(s.sets) {
		return fmt.Errorf("core: schema index %d out of range %d", i, len(s.sets))
	}
	name, err := singleSchemaName(set)
	if err != nil {
		return err
	}
	if own := s.sets[i].IDs[0].Schema; name != own {
		return fmt.Errorf("core: elements belong to schema %q, index %d holds %q", name, i, own)
	}
	if set.Matrix.Cols() != s.sets[i].Matrix.Cols() {
		return fmt.Errorf("core: elements have dimension %d, schema %q uses %d",
			set.Matrix.Cols(), s.sets[i].IDs[0].Schema, s.sets[i].Matrix.Cols())
	}
	return nil
}

// refitIncremental refits schema i's full-spectrum decomposition after a
// membership change. With fewer rows than dimensions (the schema-scoping
// regime) it reruns the from-scratch fit on the current rows — bit-identical
// to a fresh Scoper over the same state. With rows ≥ dimensions it fits from
// sufficient statistics accumulated over the current rows, within
// linalg.StatsFitTolerance of from-scratch. The randomized (ApproxMaxRank)
// path is approximate by construction and always refits through s.fit. Every
// choice is a deterministic function of the current rows.
func (s *Scoper) refitIncremental(i int) error {
	set := s.sets[i]
	var pca *linalg.PCA
	var err error
	if s.cfg.ApproxMaxRank == 0 && set.Len() >= set.Matrix.Cols() {
		if pca, err = linalg.FitPCAFromStats(linalg.AccumulateStats(set.Matrix), 1.0); err != nil {
			return trainError(set.IDs[0].Schema, set, err)
		}
	} else if pca, err = s.fit(set); err != nil {
		return err
	}
	s.full[i] = pca
	s.version[i]++
	return nil
}

// AddElements appends new elements to schema i after a schema evolution
// (say, a CREATE TABLE) and refits only that schema: the other schemas'
// decompositions, and every cached element×model score not involving
// schema i, are untouched. Duplicate element IDs are rejected — membership
// bookkeeping is by ID.
func (s *Scoper) AddElements(i int, add *embed.SignatureSet) error {
	if err := s.checkDeltaSet(i, add); err != nil {
		return err
	}
	have := make(map[schema.ElementID]bool, s.sets[i].Len())
	for _, id := range s.sets[i].IDs {
		have[id] = true
	}
	for _, id := range add.IDs {
		if have[id] {
			return fmt.Errorf("core: element %s is already part of schema %q", id, id.Schema)
		}
		have[id] = true
	}
	old := s.sets[i]
	s.sets[i] = appendSet(old, add)
	if err := s.refitIncremental(i); err != nil {
		// Roll back so a failed refit (e.g. injected non-finite rows) leaves
		// the scoper assessing the pre-update state.
		s.sets[i] = old
		return err
	}
	s.deltaAppendRows(i, add.Len())
	return nil
}

// RemoveElements drops elements from schema i (a DROP COLUMN / DROP TABLE)
// and refits only that schema. Every id must currently belong to schema i,
// and at least one element must survive — an empty signature set cannot
// train a model.
func (s *Scoper) RemoveElements(i int, ids ...schema.ElementID) error {
	if i < 0 || i >= len(s.sets) {
		return fmt.Errorf("core: schema index %d out of range %d", i, len(s.sets))
	}
	if len(ids) == 0 {
		return fmt.Errorf("core: no elements to remove")
	}
	drop := make(map[schema.ElementID]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	old := s.sets[i]
	pos := make(map[schema.ElementID]int, old.Len())
	for k, id := range old.IDs {
		pos[id] = k
	}
	for _, id := range ids {
		if _, ok := pos[id]; !ok {
			return fmt.Errorf("core: element %s is not part of schema %q", id, old.IDs[0].Schema)
		}
	}
	if old.Len()-len(drop) < 1 {
		return fmt.Errorf("core: removing %d of %d elements would leave schema %q empty",
			len(drop), old.Len(), old.IDs[0].Schema)
	}
	var removedRows []int
	keepIDs := make([]schema.ElementID, 0, old.Len()-len(drop))
	for k, id := range old.IDs {
		if drop[id] {
			removedRows = append(removedRows, k)
			continue
		}
		keepIDs = append(keepIDs, id)
	}
	next := &embed.SignatureSet{IDs: keepIDs, Matrix: linalg.NewDense(len(keepIDs), old.Matrix.Cols())}
	for k, id := range keepIDs {
		copy(next.Matrix.RowView(k), old.Matrix.RowView(pos[id]))
	}
	s.sets[i] = next
	if err := s.refitIncremental(i); err != nil {
		s.sets[i] = old
		return err
	}
	s.deltaRemoveRows(i, removedRows)
	return nil
}

// appendSet returns a new signature set holding a's rows followed by b's.
func appendSet(a, b *embed.SignatureSet) *embed.SignatureSet {
	ids := make([]schema.ElementID, 0, a.Len()+b.Len())
	ids = append(ids, a.IDs...)
	ids = append(ids, b.IDs...)
	m := linalg.NewDense(len(ids), a.Matrix.Cols())
	for k := 0; k < a.Len(); k++ {
		copy(m.RowView(k), a.Matrix.RowView(k))
	}
	for k := 0; k < b.Len(); k++ {
		copy(m.RowView(a.Len()+k), b.Matrix.RowView(k))
	}
	return &embed.SignatureSet{IDs: ids, Matrix: m}
}

// ---------------------------------------------------------------------------
// Delta assessment

// DeltaReport accounts for one delta assessment: how many element×model
// encoder-decoder passes ran versus how many cached scores were reused, and
// how many models had to be rebuilt. Rescored+Reused equals the pass count
// of a full assessment round (Scoper.PassOperations), which is how the
// churn benchmark and the service counters prove delta assessment does
// strictly less work for identical verdicts.
type DeltaReport struct {
	// Rescored counts element×model passes actually computed.
	Rescored int
	// Reused counts element×model scores served from the delta cache.
	Reused int
	// Refits counts models rebuilt (truncation + range) because their
	// schema's version moved since the cached model was built.
	Refits int
}

// deltaErrs caches schema i's per-element reconstruction errors under
// foreign model j, with per-row validity (freshly added elements start
// invalid) and the foreign model version the scores belong to.
type deltaErrs struct {
	foreignVer int64
	vals       []float64
	valid      []bool
}

// deltaCache is the AssessDelta working state: per-schema models built at
// one explained-variance target, plus the (i, j) score cache.
type deltaCache struct {
	v        float64
	models   []*Model
	modelVer []int64
	errs     [][]*deltaErrs // errs[i][j], nil until first use
}

func (s *Scoper) deltaAppendRows(i, n int) {
	c := s.delta
	if c == nil {
		return
	}
	for j := range c.errs[i] {
		e := c.errs[i][j]
		if e == nil {
			continue
		}
		e.vals = append(e.vals, make([]float64, n)...)
		e.valid = append(e.valid, make([]bool, n)...)
	}
}

func (s *Scoper) deltaRemoveRows(i int, removed []int) {
	c := s.delta
	if c == nil {
		return
	}
	drop := make(map[int]bool, len(removed))
	for _, r := range removed {
		drop[r] = true
	}
	for j := range c.errs[i] {
		e := c.errs[i][j]
		if e == nil {
			continue
		}
		vals := e.vals[:0]
		valid := e.valid[:0]
		for k := range e.vals {
			if drop[k] {
				continue
			}
			vals = append(vals, e.vals[k])
			valid = append(valid, e.valid[k])
		}
		e.vals, e.valid = vals, valid
	}
}

// deltaInvalidateSchema forgets everything cached about schema i — used by
// UpdateSchema, whose arbitrary membership replacement defeats row-level
// bookkeeping.
func (s *Scoper) deltaInvalidateSchema(i int) {
	c := s.delta
	if c == nil {
		return
	}
	c.models[i] = nil
	for j := range c.errs[i] {
		c.errs[i][j] = nil
	}
}

// AssessDelta runs the full collaborative assessment at explained variance
// v, like ScopeContext, but re-scores only element×model pairs whose
// verdict can have changed since the previous AssessDelta at the same v:
// elements added since then, and every element facing a foreign model whose
// version moved. Cached scores are the identical float64 values a full pass
// would recompute (the kernels are bit-deterministic per row), so the
// returned keep-set is always identical to ScopeContext(ctx, v) — the
// report only proves it was reached with strictly less work.
//
// The first call at a given v warms the cache (everything is re-scored);
// changing v drops the cache, since every model truncation changes.
func (s *Scoper) AssessDelta(ctx context.Context, v float64) (map[schema.ElementID]bool, DeltaReport, error) {
	var rep DeltaReport
	if v <= 0 || v > 1 {
		return nil, rep, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	ctx, sp := obs.Start(ctx, "core.assess_delta")
	sp.Annotate("schemas", int64(len(s.sets)))
	defer sp.End()
	reg := obs.FromContext(ctx)

	k := len(s.sets)
	if s.delta == nil || s.delta.v != v {
		errs := make([][]*deltaErrs, k)
		for i := range errs {
			errs[i] = make([]*deltaErrs, k)
		}
		s.delta = &deltaCache{v: v, models: make([]*Model, k), modelVer: make([]int64, k), errs: errs}
	}
	c := s.delta

	// Rebuild stale models — the exact ModelsContext construction, so a
	// cached model is bit-identical to what a full round would build.
	for i := range s.sets {
		if c.models[i] != nil && c.modelVer[i] == s.version[i] {
			continue
		}
		set := s.sets[i]
		pca := s.full[i].Truncate(v)
		m := &Model{Schema: set.IDs[0].Schema, Variance: v, pca: pca}
		m.Range = maxOf(pca.ReconstructionErrors(set.Matrix))
		if err := checkModel(m); err != nil {
			return nil, rep, err
		}
		c.models[i] = m
		c.modelVer[i] = s.version[i]
		rep.Refits++
	}

	keep := make(map[schema.ElementID]bool, s.PassOperations())
	for i := range s.sets {
		local := s.sets[i]
		n := local.Len()
		verdict := make([]bool, n)
		if s.cfg.Mode == AllModels {
			for r := range verdict {
				verdict[r] = k > 1
			}
		}
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			e := c.errs[i][j]
			if e == nil || len(e.vals) != n {
				e = &deltaErrs{vals: make([]float64, n), valid: make([]bool, n)}
				c.errs[i][j] = e
			}
			if err := s.deltaScore(local, c.models[j], c.modelVer[j], e, &rep); err != nil {
				return nil, rep, err
			}
			bound := c.models[j].Range * (1 + s.cfg.RelaxEpsilon)
			for r, ev := range e.vals {
				accepted := ev <= bound
				if s.cfg.Mode == AllModels {
					verdict[r] = verdict[r] && accepted
				} else {
					verdict[r] = verdict[r] || accepted
				}
			}
		}
		for r, id := range local.IDs {
			keep[id] = verdict[r]
		}
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
	}
	reg.Counter("core.delta.rescored").Add(int64(rep.Rescored))
	reg.Counter("core.delta.reused").Add(int64(rep.Reused))
	reg.Counter("core.delta.refits").Add(int64(rep.Refits))
	sp.Annotate("rescored", int64(rep.Rescored))
	sp.Annotate("reused", int64(rep.Reused))
	return keep, rep, nil
}

// deltaScore brings one (local schema, foreign model) score column up to
// date: a foreign-version move re-scores every row; otherwise only rows
// marked invalid (freshly added elements) are scored, gathered into a
// scratch matrix so the kernel pass stays batched. Per-row results are
// bit-identical to a full-matrix pass — each row's reconstruction error
// depends only on that row (kernel determinism contract, DESIGN.md §11).
func (s *Scoper) deltaScore(local *embed.SignatureSet, m *Model, mver int64, e *deltaErrs, rep *DeltaReport) error {
	n := local.Len()
	if e.foreignVer != mver {
		m.ErrorsInto(local.Matrix, e.vals, nil)
		for r := range e.valid {
			e.valid[r] = true
		}
		e.foreignVer = mver
		rep.Rescored += n
		return nil
	}
	var stale []int
	for r, ok := range e.valid {
		if !ok {
			stale = append(stale, r)
		}
	}
	rep.Reused += n - len(stale)
	if len(stale) == 0 {
		return nil
	}
	sub := linalg.NewDense(len(stale), local.Matrix.Cols())
	for t, r := range stale {
		copy(sub.RowView(t), local.Matrix.RowView(r))
	}
	out := make([]float64, len(stale))
	m.ErrorsInto(sub, out, nil)
	for t, r := range stale {
		e.vals[r] = out[t]
		e.valid[r] = true
	}
	rep.Rescored += len(stale)
	return nil
}

// ---------------------------------------------------------------------------
// ModelState: persistent single-schema incremental training state

// ModelState is the incremental training state of one schema: its element
// IDs and signature rows, and a version that bumps on every membership
// change. It backs `collabscope update`: the state persists in a checkpoint
// store between invocations and a schema evolution applies as a diff
// (added / removed / changed elements). The rows are the whole state — a
// fit's sufficient statistics are derived from them when a fit needs them —
// so the trained model is a pure function of the current rows. Persisted
// state reloads bit-identically — JSON float64 encoding round-trips exactly
// — so a restarted process resumes incremental maintenance as if it never
// stopped.
type ModelState struct {
	name    string
	ids     []schema.ElementID
	rows    *linalg.Dense
	version int64
}

// StateDelta summarises one ModelState.Apply: how many elements were added,
// removed, and changed (same ID, different signature).
type StateDelta struct {
	Added, Removed, Changed int
}

// Empty reports whether the delta is a no-op.
func (d StateDelta) Empty() bool { return d.Added == 0 && d.Removed == 0 && d.Changed == 0 }

func (d StateDelta) String() string {
	return fmt.Sprintf("+%d -%d ~%d", d.Added, d.Removed, d.Changed)
}

// NewModelState initialises incremental state from a schema's full
// signature set (the first, full fit of an evolving schema).
func NewModelState(set *embed.SignatureSet) (*ModelState, error) {
	name, err := singleSchemaName(set)
	if err != nil {
		return nil, err
	}
	seen := make(map[schema.ElementID]bool, set.Len())
	for _, id := range set.IDs {
		if seen[id] {
			return nil, fmt.Errorf("core: duplicate element %s in signature set", id)
		}
		seen[id] = true
	}
	ids := make([]schema.ElementID, set.Len())
	copy(ids, set.IDs)
	return &ModelState{name: name, ids: ids, rows: set.Matrix.Clone(), version: 1}, nil
}

// Schema returns the schema name the state belongs to.
func (st *ModelState) Schema() string { return st.name }

// Dim returns the signature dimensionality.
func (st *ModelState) Dim() int { return st.rows.Cols() }

// Len returns the number of maintained elements.
func (st *ModelState) Len() int { return len(st.ids) }

// Version returns the state version: 1 at initialisation, bumped by every
// membership change. Republishing a model after a version bump is what
// triggers delta re-scoring in peers and the scoping service.
func (st *ModelState) Version() int64 { return st.version }

// IDs returns a copy of the maintained element IDs, in row order.
func (st *ModelState) IDs() []schema.ElementID {
	out := make([]schema.ElementID, len(st.ids))
	copy(out, st.ids)
	return out
}

// Apply diffs the state against a schema's current signature set and, when
// anything differs, adopts the set as the new state and bumps the version:
// elements gone from the set count as removed, elements new to it as added,
// and elements whose signature changed as changed. The final element order
// is the incoming set's order.
func (st *ModelState) Apply(set *embed.SignatureSet) (StateDelta, error) {
	var delta StateDelta
	name, err := singleSchemaName(set)
	if err != nil {
		return delta, err
	}
	if name != st.name {
		return delta, fmt.Errorf("core: state holds schema %q, set belongs to %q", st.name, name)
	}
	if set.Matrix.Cols() != st.Dim() {
		return delta, fmt.Errorf("core: state is %d-dimensional, set is %d-dimensional — the global encoder must not change mid-state",
			st.Dim(), set.Matrix.Cols())
	}
	inSet := make(map[schema.ElementID]bool, set.Len())
	for _, id := range set.IDs {
		if inSet[id] {
			return delta, fmt.Errorf("core: duplicate element %s in signature set", id)
		}
		inSet[id] = true
	}
	oldPos := make(map[schema.ElementID]int, len(st.ids))
	for k, id := range st.ids {
		oldPos[id] = k
		if !inSet[id] {
			delta.Removed++
		}
	}
	for k, id := range set.IDs {
		oldK, ok := oldPos[id]
		switch {
		case !ok:
			delta.Added++
		case !equalRow(st.rows.RowView(oldK), set.Matrix.RowView(k)):
			delta.Changed++
		}
	}
	if delta.Empty() {
		return delta, nil
	}
	ids := make([]schema.ElementID, set.Len())
	copy(ids, set.IDs)
	st.ids = ids
	st.rows = set.Matrix.Clone()
	st.version++
	return delta, nil
}

// Model trains the current state's model at explained variance v. With
// fewer rows than dimensions — the schema-scoping regime — it runs the
// exact Train code path over the rows, so the result is bit-identical to
// retraining from scratch. With rows ≥ dimensions it fits from sufficient
// statistics accumulated over the rows, within linalg.StatsFitTolerance of
// from-scratch.
func (st *ModelState) Model(v float64) (*Model, error) {
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	set := &embed.SignatureSet{IDs: st.ids, Matrix: st.rows}
	if st.Len() < st.Dim() {
		return Train(set, v)
	}
	pca, err := linalg.FitPCAFromStats(linalg.AccumulateStats(st.rows), v)
	if err != nil {
		return nil, trainError(st.name, set, err)
	}
	m := &Model{Schema: st.name, Variance: v, pca: pca}
	m.Range = maxOf(pca.ReconstructionErrors(st.rows))
	return m, checkModel(m)
}

func equalRow(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// modelStateCell is the checkpoint-cell payload of a ModelState. Float64
// values survive the JSON round trip exactly (Go emits the shortest
// representation that parses back to the same bits), so a reloaded state is
// bit-identical to the saved one — pinned by TestModelStateApplyAndPersist.
// Cells written by older versions also carry the fit's sufficient
// statistics (stats_n, sum, scatter); the decoder ignores those fields.
type modelStateCell struct {
	Schema  string             `json:"schema"`
	Dim     int                `json:"dim"`
	Version int64              `json:"version"`
	IDs     []schema.ElementID `json:"ids"`
	Rows    [][]float64        `json:"rows"`
}

// ModelStateKey is the checkpoint-cell key of a schema's incremental state.
func ModelStateKey(schemaName string) string { return "incremental.state." + schemaName }

// Save persists the state as one checkpoint cell (atomic write, SHA-256
// trailer). A crash mid-save leaves the previous cell intact.
func (st *ModelState) Save(store CellStore) error {
	cell := modelStateCell{
		Schema:  st.name,
		Dim:     st.Dim(),
		Version: st.version,
		IDs:     st.ids,
		Rows:    make([][]float64, st.Len()),
	}
	for k := range cell.Rows {
		cell.Rows[k] = st.rows.RowView(k)
	}
	if err := store.Save(ModelStateKey(st.name), &cell); err != nil {
		return fmt.Errorf("core: save incremental state of %q: %w", st.name, err)
	}
	return nil
}

// LoadModelState restores a schema's persisted incremental state. A missing
// cell — or a corrupt one, which the store quarantines — reports
// (nil, false, nil): the caller re-initialises from a full fit, exactly the
// crash-safety posture of every other checkpoint consumer.
func LoadModelState(store CellStore, schemaName string) (*ModelState, bool, error) {
	var cell modelStateCell
	ok, err := store.Load(ModelStateKey(schemaName), &cell)
	if err != nil || !ok {
		return nil, false, err
	}
	if cell.Schema != schemaName || cell.Dim <= 0 || len(cell.IDs) != len(cell.Rows) {
		return nil, false, fmt.Errorf("core: incremental state cell for %q is inconsistent", schemaName)
	}
	rows := linalg.NewDense(len(cell.Rows), cell.Dim)
	for k, row := range cell.Rows {
		if len(row) != cell.Dim {
			return nil, false, fmt.Errorf("core: incremental state cell for %q has a %d-wide row, want %d",
				schemaName, len(row), cell.Dim)
		}
		copy(rows.RowView(k), row)
	}
	return &ModelState{name: cell.Schema, ids: cell.IDs, rows: rows, version: cell.Version}, true, nil
}

// ---------------------------------------------------------------------------
// Store-backed delta assessment (cross-invocation)

// SignatureSum fingerprints a signature set: schema name, element IDs, and
// the exact float64 bits of every row. Two sets with the same sum score
// identically under any model, which is what lets persisted per-model score
// columns be reused across process restarts.
func SignatureSum(set *embed.SignatureSet) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(set.Len()))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(set.Matrix.Cols()))
	h.Write(buf[:])
	for k, id := range set.IDs {
		fmt.Fprintf(h, "%s\x00", id)
		for _, v := range set.Matrix.RowView(k) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// assessDeltaCell persists one (local signatures, foreign model) score
// column: reusable exactly when both fingerprints still match.
type assessDeltaCell struct {
	ModelFP string    `json:"model_fp"`
	SigSum  string    `json:"sig_sum"`
	Errs    []float64 `json:"errs"`
}

// AssessDeltaStore is AssessContext with a cross-invocation delta cache:
// per-foreign-model score columns persist in the store, keyed by the model
// fingerprint and the local signature fingerprint, so re-assessing after a
// peer republishes re-scores only against the models that actually changed
// (`collabscope assess -delta`). Verdicts are identical to AssessContext —
// a reused column holds the exact float64s a fresh pass would recompute.
// A nil store degrades to plain AssessContext with everything re-scored.
func AssessDeltaStore(ctx context.Context, workers int, local *embed.SignatureSet, foreign []*Model, cfg AssessConfig, store CellStore, prefix string) (map[schema.ElementID]bool, DeltaReport, error) {
	var rep DeltaReport
	if local.Len() == 0 {
		return nil, rep, fmt.Errorf("core: cannot assess an empty signature set")
	}
	ctx, sp := obs.Start(ctx, "core.assess_delta_store")
	sp.Annotate("elements", int64(local.Len()))
	sp.Annotate("models", int64(len(foreign)))
	defer sp.End()
	reg := obs.FromContext(ctx)

	n := local.Len()
	sigSum := SignatureSum(local)
	errsByModel := make([][]float64, len(foreign))
	keys := make([]string, len(foreign))
	fps := make([]string, len(foreign))
	var misses []int
	for k, m := range foreign {
		fp, err := m.Fingerprint()
		if err != nil {
			return nil, rep, fmt.Errorf("core: fingerprint model %q: %w", m.Schema, err)
		}
		fps[k] = fp
		if store == nil {
			misses = append(misses, k)
			continue
		}
		keys[k] = fmt.Sprintf("%s/assess-delta/%s/%s", prefix, local.IDs[0].Schema, m.Schema)
		var cell assessDeltaCell
		ok, err := store.Load(keys[k], &cell)
		if err != nil {
			return nil, rep, fmt.Errorf("core: load delta cell %q: %w", keys[k], err)
		}
		if ok && cell.ModelFP == fp && cell.SigSum == sigSum && len(cell.Errs) == n {
			errsByModel[k] = cell.Errs
			rep.Reused += n
			continue
		}
		misses = append(misses, k)
	}
	fresh, err := parallel.Map(ctx, workers, misses, func(_ int, k int) ([]float64, error) {
		return foreign[k].ErrorsInto(local.Matrix, make([]float64, n), nil), nil
	})
	if err != nil {
		return nil, rep, err
	}
	for t, k := range misses {
		errsByModel[k] = fresh[t]
		rep.Rescored += n
		if store != nil {
			cell := assessDeltaCell{ModelFP: fps[k], SigSum: sigSum, Errs: fresh[t]}
			if err := store.Save(keys[k], &cell); err != nil {
				return nil, rep, fmt.Errorf("core: save delta cell %q: %w", keys[k], err)
			}
		}
	}
	reg.Counter("core.delta.rescored").Add(int64(rep.Rescored))
	reg.Counter("core.delta.reused").Add(int64(rep.Reused))

	// Fold verdicts exactly as AssessContext does.
	verdict := make(map[schema.ElementID]bool, n)
	for _, id := range local.IDs {
		verdict[id] = cfg.Mode == AllModels && len(foreign) > 0
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
	return verdict, rep, nil
}
