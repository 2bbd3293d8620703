package main

import (
	"encoding/json"
	"testing"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRotateOC3FOIsSeededRotation(t *testing.T) {
	a, b := rotateOC3FO(5), rotateOC3FO(5)
	if mustJSON(t, a.Schemas) != mustJSON(t, b.Schemas) {
		t.Fatal("same seed gave different inputs")
	}
	if a.Schemas[0].Name == rotateOC3FO(6).Schemas[0].Name {
		t.Fatal("adjacent seeds gave the same schema order")
	}
	if rotateOC3FO(-3).Schemas[0].Name != rotateOC3FO(1).Schemas[0].Name {
		t.Fatal("negative seed did not rotate modulo the schema count")
	}
	names := map[string]bool{}
	for _, s := range rotateOC3FO(3).Schemas {
		names[s.Name] = true
	}
	if len(names) != 4 {
		t.Fatalf("rotation lost schemas: %v", names)
	}
}

func churnRounds(t *testing.T, seed int64, n int) []revision {
	t.Helper()
	c, err := newChurnSchedule(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]revision, n)
	for i := range out {
		out[i] = c.Next()
	}
	return out
}

func TestChurnScheduleIsSeeded(t *testing.T) {
	a, b, c := churnRounds(t, 3, 30), churnRounds(t, 3, 30), churnRounds(t, 4, 30)
	if mustJSON(t, a) != mustJSON(t, b) {
		t.Fatal("same seed gave different schedules")
	}
	if mustJSON(t, a) == mustJSON(t, c) {
		t.Fatal("different seeds gave identical schedules")
	}
}

func TestChurnScheduleCoversAddDropRename(t *testing.T) {
	rounds := churnRounds(t, 1, 60)
	kinds := map[string]int{}
	for i, r := range rounds {
		kinds[r.Kind]++
		if err := r.Schema.Validate(); err != nil {
			t.Fatalf("%v: invalid schema: %v", r, err)
		}
		// Every block of three rounds holds each kind once.
		if i%3 == 2 {
			block := map[string]bool{rounds[i-2].Kind: true, rounds[i-1].Kind: true, r.Kind: true}
			if len(block) != 3 {
				t.Fatalf("rounds %d–%d repeat a kind", i-2, i)
			}
		}
	}
	for _, k := range []string{reviseAdd, reviseDrop, reviseRename} {
		if kinds[k] != 20 {
			t.Fatalf("kind %s drawn %d times in 60 rounds, want 20", k, kinds[k])
		}
	}
}

func TestChurnRevisionChangesOneAttribute(t *testing.T) {
	c, err := newChurnSchedule(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		before := cloneSchema(c.Schemas()[0])
		r := c.Next()
		if r.Index != 0 {
			continue
		}
		delta := r.Schema.NumAttributes() - before.NumAttributes()
		want := map[string]int{reviseAdd: 1, reviseDrop: -1, reviseRename: 0}[r.Kind]
		if delta != want {
			t.Fatalf("%v: attribute count moved by %d, want %d", r, delta, want)
		}
		if before.Attribute(r.Table, r.Attr) == nil && r.Kind != reviseAdd {
			t.Fatalf("%v: revised attribute did not exist before", r)
		}
	}
}
