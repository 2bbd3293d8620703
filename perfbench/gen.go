package main

// Seeded input generators. Every workload's inputs are a pure function of
// the --seed argument: the same seed yields identical inputs, and the
// program under test only ever sees the generated schemas.

import (
	"fmt"
	"math/rand"
	"sort"

	"collabscope/internal/datasets"
	"collabscope/internal/schema"
	"collabscope/internal/synth"
)

// rotateOC3FO returns the bundled OC3-FO schemas rotated by seed mod 4.
// The rotation changes the order the pipeline sees, never the work or the
// verdicts.
func rotateOC3FO(seed int64) *datasets.Dataset {
	d := datasets.OC3FO()
	k := len(d.Schemas)
	r := int(((seed % int64(k)) + int64(k)) % int64(k))
	rotated := append(append([]*schema.Schema(nil), d.Schemas[r:]...), d.Schemas[:r]...)
	return &datasets.Dataset{Name: d.Name, Schemas: rotated, Truth: d.Truth}
}

// Churn revision kinds.
const (
	reviseAdd    = "add"
	reviseDrop   = "drop"
	reviseRename = "rename"
)

// revision is one round of the evolve_churn schedule: schema Index of the
// tenant is replaced by Schema, which differs from the previous version by
// one added, dropped or renamed attribute.
type revision struct {
	Round  int
	Index  int
	Kind   string
	Table  string
	Attr   string // the attribute added, dropped, or renamed away
	NewTo  string // the rename target ("" unless Kind is rename)
	Schema *schema.Schema
}

// churnSchedule is an endless, seeded revision schedule over one tenant's
// schemas. Kinds come in shuffled blocks of {add, drop, rename}, so every
// three rounds cover all three and the schemas keep a stable size.
type churnSchedule struct {
	rng     *rand.Rand
	current []*schema.Schema
	vocab   []schema.Attribute
	block   []string
	round   int
}

// newChurnSchedule generates the tenant's 3 commerce schemas and a
// replacement vocabulary harvested from a wider synth scenario.
func newChurnSchedule(seed int64) (*churnSchedule, error) {
	tenant, err := synth.Generate(synth.Config{Schemas: 3, Seed: seed})
	if err != nil {
		return nil, err
	}
	donor, err := synth.Generate(synth.Config{
		Schemas: 2, WithHR: true, WithFinance: true, WithLogistics: true,
		UnrelatedSchemas: 2, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var vocab []schema.Attribute
	for _, s := range donor.Schemas {
		for _, t := range s.Tables {
			for _, a := range t.Attributes {
				if !seen[a.Name] {
					seen[a.Name] = true
					vocab = append(vocab, schema.Attribute{Name: a.Name, Type: a.Type})
				}
			}
		}
	}
	sort.Slice(vocab, func(i, j int) bool { return vocab[i].Name < vocab[j].Name })
	return &churnSchedule{
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		current: tenant.Schemas,
		vocab:   vocab,
	}, nil
}

// Schemas returns the tenant's current schema versions.
func (c *churnSchedule) Schemas() []*schema.Schema { return c.current }

// Next draws the next revision and applies it to the current versions.
func (c *churnSchedule) Next() revision {
	if len(c.block) == 0 {
		c.block = []string{reviseAdd, reviseDrop, reviseRename}
		c.rng.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
	}
	kind := c.block[0]
	c.block = c.block[1:]
	idx := c.rng.Intn(len(c.current))
	s := cloneSchema(c.current[idx])
	rev := revision{Round: c.round, Index: idx, Kind: kind}
	c.round++

	t := &s.Tables[c.rng.Intn(len(s.Tables))]
	switch kind {
	case reviseAdd:
		a := c.freshAttr(t)
		a.Table = t.Name
		t.Attributes = append(t.Attributes, a)
		rev.Attr = a.Name
	case reviseDrop:
		// Drop from the widest table so no table ever loses its last
		// attribute.
		for i := range s.Tables {
			if len(s.Tables[i].Attributes) > len(t.Attributes) {
				t = &s.Tables[i]
			}
		}
		k := c.rng.Intn(len(t.Attributes))
		rev.Attr = t.Attributes[k].Name
		t.Attributes = append(t.Attributes[:k:k], t.Attributes[k+1:]...)
	case reviseRename:
		k := c.rng.Intn(len(t.Attributes))
		fresh := c.freshAttr(t)
		rev.Attr, rev.NewTo = t.Attributes[k].Name, fresh.Name
		t.Attributes[k].Name = fresh.Name
	}
	rev.Table = t.Name
	rev.Schema = s
	c.current[idx] = s
	return rev
}

// freshAttr draws a vocabulary attribute whose name the table lacks.
func (c *churnSchedule) freshAttr(t *schema.Table) schema.Attribute {
	has := map[string]bool{}
	for _, a := range t.Attributes {
		has[a.Name] = true
	}
	for {
		a := c.vocab[c.rng.Intn(len(c.vocab))]
		if !has[a.Name] {
			return a
		}
	}
}

// cloneSchema deep-copies a schema so revisions never alias earlier
// versions.
func cloneSchema(s *schema.Schema) *schema.Schema {
	out := &schema.Schema{Name: s.Name, Tables: make([]schema.Table, len(s.Tables))}
	for i, t := range s.Tables {
		out.Tables[i] = schema.Table{Name: t.Name, Attributes: append([]schema.Attribute(nil), t.Attributes...)}
	}
	return out
}

// String renders a revision for logs and test failures.
func (r revision) String() string {
	if r.Kind == reviseRename {
		return fmt.Sprintf("round %d: %s %s.%s %s→%s", r.Round, r.Kind, r.Schema.Name, r.Table, r.Attr, r.NewTo)
	}
	return fmt.Sprintf("round %d: %s %s.%s.%s", r.Round, r.Kind, r.Schema.Name, r.Table, r.Attr)
}
