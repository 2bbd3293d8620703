package exchange

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"collabscope/internal/obs"
)

// TestDeltaAssessReusesColumnsAcrossRepublish pins the service delta path:
// re-assessing the same signatures recomputes nothing, a single-model
// republish (version bump) recomputes exactly that model's column, and the
// delta-served verdicts are identical to a cold server's — with the
// service.delta.* counters (global and per-tenant) proving the reuse.
func TestDeltaAssessReusesColumnsAcrossRepublish(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	ctx := context.Background()

	for _, name := range []string{"Alpha", "Beta", "Gamma"} {
		if _, err := c.Upload(ctx, ts.URL, "acme", serviceModel(t, name, 1.5)); err != nil {
			t.Fatal(err)
		}
	}
	req := &AssessRequest{
		Schema:     "Alpha",
		IDs:        []string{"e0", "e1", "e2"},
		Signatures: [][]float64{{1, 0.1, 0, 0.5}, {0.2, 0.7, 0.1, 0.25}, {9, 9, 9, 9}},
	}
	n := int64(len(req.Signatures))
	counters := func(name string) int64 { return reg.Snapshot().Counters[name] }

	// Cold round: both foreign columns (Beta, Gamma) are scored.
	first, err := c.Assess(ctx, ts.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.rescored"); got != 2*n {
		t.Fatalf("cold round rescored %d, want %d", got, 2*n)
	}
	if got := counters("service.delta.reused"); got != 0 {
		t.Fatalf("cold round reused %d, want 0", got)
	}

	// Identical round: everything reused, verdicts identical.
	second, err := c.Assess(ctx, ts.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.reused"); got != 2*n {
		t.Fatalf("warm round reused %d, want %d", got, 2*n)
	}
	if got := counters("service.delta.rescored"); got != 2*n {
		t.Fatalf("warm round rescored %d, want still %d", got, 2*n)
	}
	for i := range first.Verdicts {
		if first.Verdicts[i] != second.Verdicts[i] {
			t.Fatalf("verdict %d changed on reuse: %+v vs %+v", i, first.Verdicts[i], second.Verdicts[i])
		}
	}

	// Republish Beta with new content: a version bump. Only Beta's column
	// re-scores; Gamma's is still served from the cache.
	ur, err := c.Upload(ctx, ts.URL, "acme", serviceModel(t, "Beta", 3.5))
	if err != nil {
		t.Fatal(err)
	}
	if ur.Version != 2 {
		t.Fatalf("republish version %d, want 2", ur.Version)
	}
	third, err := c.Assess(ctx, ts.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.rescored"); got != 3*n {
		t.Fatalf("republish round total rescored %d, want %d (one column)", got, 3*n)
	}
	if got := counters("service.delta.reused"); got != 3*n {
		t.Fatalf("republish round total reused %d, want %d", got, 3*n)
	}
	if counters("service.tenant.acme.delta.reused") != 3*n || counters("service.tenant.acme.delta.rescored") != 3*n {
		t.Fatal("per-tenant service.tenant.acme.delta.* counters did not mirror the global ones")
	}

	// Ground truth: a cold server holding the same final registry answers
	// identically to the delta-served response.
	cold, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	tsCold := httptest.NewServer(cold)
	defer tsCold.Close()
	for _, m := range []struct {
		name  string
		scale float64
	}{{"Alpha", 1.5}, {"Beta", 3.5}, {"Gamma", 1.5}} {
		if _, err := c.Upload(ctx, tsCold.URL, "acme", serviceModel(t, m.name, m.scale)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Assess(ctx, tsCold.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Verdicts {
		if third.Verdicts[i] != want.Verdicts[i] {
			t.Fatalf("delta verdict %d = %+v, cold server says %+v", i, third.Verdicts[i], want.Verdicts[i])
		}
	}

	// Different signatures miss the cache (fresh key), different tenant too.
	other := &AssessRequest{Schema: "Alpha", Signatures: [][]float64{{0.5, 0.5, 0.5, 0.5}}}
	if _, err := c.Assess(ctx, ts.URL, "acme", other); err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.rescored"); got != 3*n+2 {
		t.Fatalf("fresh signatures rescored: counter %d, want %d", got, 3*n+2)
	}
}

// TestDeltaStoreBounded pins the eviction bound: the cache never holds more
// than maxDeltaEntries signature entries.
func TestDeltaStoreBounded(t *testing.T) {
	d := newDeltaStore()
	for i := 0; i < maxDeltaEntries+50; i++ {
		d.put(string(rune(i))+"key", map[string]deltaColumn{"S": {etag: "e", errs: []float64{1}}})
	}
	if n := d.entries.Len(); n != maxDeltaEntries {
		t.Fatalf("cache holds %d entries, cap %d", n, maxDeltaEntries)
	}
	if d.lookup("missing") != nil {
		t.Fatal("lookup of a missing key returned an entry")
	}
}

// TestDeltaStoreKeepsRecentlyRead pins least-recently-used eviction: an
// entry that is read between inserts survives maxDeltaEntries newer keys,
// while the entry inserted with it and never read is evicted.
func TestDeltaStoreKeepsRecentlyRead(t *testing.T) {
	d := newDeltaStore()
	col := map[string]deltaColumn{"S": {etag: "e", errs: []float64{1}}}
	d.put("hot", col)
	d.put("cold", col)
	for i := 0; i < maxDeltaEntries; i++ {
		if d.lookup("hot") == nil {
			t.Fatalf("recently read entry evicted after %d newer keys", i)
		}
		d.put(fmt.Sprintf("new-%d", i), col)
	}
	if d.lookup("hot") == nil {
		t.Fatalf("recently read entry did not survive %d newer keys", maxDeltaEntries)
	}
	if d.lookup("cold") != nil {
		t.Fatal("never-read entry outlived the capacity bound")
	}
}

// FuzzAssessRequestJSON fuzzes the /v1/assess request decoder + validator —
// the other untrusted wire surface besides model bodies. The contract:
// never panic, and every ACCEPTED request must be internally consistent
// (rectangular finite signature matrix, ids aligned, a known mode), since
// the compute path indexes rows and ids by those invariants.
func FuzzAssessRequestJSON(f *testing.F) {
	valid, err := json.Marshal(&AssessRequest{
		Schema:     "S",
		IDs:        []string{"a", "b"},
		Signatures: [][]float64{{1, 0.5}, {0.25, 0}},
		Mode:       "all",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"schema":"S","signatures":[[1,2],[3]]}`))
	f.Add([]byte(`{"schema":"","signatures":[[1]]}`))
	f.Add([]byte(`{"schema":"S","signatures":[[1e309]]}`))
	f.Add([]byte(`{"schema":"S","signatures":[[1]],"mode":"some"}`))
	f.Add([]byte(`{"schema":"S","signatures":[[1]],"relax_epsilon":-1}`))
	f.Add([]byte(`{"schema":"S","signatures":[],"ids":["x"]}`))
	f.Add([]byte(`{"schema":"S","signatures":[[0,0]],"ids":["x","y"]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req AssessRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return // rejected requests only need to fail cleanly
		}
		// Accepted requests must uphold the compute path's invariants.
		if req.Schema == "" {
			t.Fatal("accepted request with empty schema")
		}
		if len(req.Signatures) == 0 {
			t.Fatal("accepted request with no signatures")
		}
		dim := len(req.Signatures[0])
		if dim == 0 {
			t.Fatal("accepted request with empty rows")
		}
		for _, row := range req.Signatures {
			if len(row) != dim {
				t.Fatal("accepted request with a ragged signature matrix")
			}
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatal("accepted request with non-finite signatures")
				}
			}
		}
		if len(req.IDs) != 0 && len(req.IDs) != len(req.Signatures) {
			t.Fatal("accepted request with misaligned ids")
		}
		switch req.mode() {
		default:
			// mode() must map any accepted Mode string to a defined constant.
		}
		_ = assessSigKey("t", &req) // fingerprinting an accepted request must not panic
	})
}
