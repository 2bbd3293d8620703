package main

// The service workload evolve_churn: one tenant's schemas revised round by
// round — incremental UpdateModel, upload to an in-process hub on loopback,
// re-assessment through POST /v1/assess and a delta-state assessment — plus
// the hub and the traced client/handler plumbing it runs on.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"collabscope"
	"collabscope/internal/checkpoint"
	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// ---------------------------------------------------------------------------
// The hub and its traced plumbing.

// hub is an in-process scoping service on a loopback listener.
type hub struct {
	hs   *http.Server
	base string
	reg  *obs.Registry // nil when untraced
	done chan struct{}
}

// traceHeader carries "<op>/<client span id>" from the traced client to
// the hub-side handler wrapper.
const traceHeader = "X-Perfbench-Span"

// startHub serves srv on 127.0.0.1. With rec set, every request is timed
// by a handler wrapper and recorded as an "exchange.server" span under the
// client span named in traceHeader.
func startHub(srv *exchange.Server, reg *obs.Registry, rec *recorderRef) (*hub, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = srv
	if rec != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cur := rec.get()
			op, parent, ok := parseTraceHeader(r.Header.Get(traceHeader))
			if cur == nil || !ok {
				srv.ServeHTTP(w, r)
				return
			}
			start := cur.clock.Elapsed()
			srv.ServeHTTP(w, r)
			cur.add(span{ID: cur.newID(), Parent: parent, Op: op, Name: "exchange.server", Start: start, End: cur.clock.Elapsed()})
		})
	}
	h := &hub{hs: &http.Server{Handler: handler}, base: "http://" + ln.Addr().String(), reg: reg, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

func (h *hub) close() {
	_ = h.hs.Close()
	<-h.done
}

func parseTraceHeader(v string) (op, parent int64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// recorderRef lets the hub, built at set-up, find the recorder of the
// traced measurement that starts later.
type recorderRef struct{ p atomic.Pointer[recorder] }

func (r *recorderRef) get() *recorder { return r.p.Load() }

// attach publishes rec to the hub wrapper on the first traced op and marks
// the hub counters there, so the report covers the traced ops only.
func (r *recorderRef) attach(rec *recorder, reg *obs.Registry, mark *obs.Snapshot) {
	if r.p.CompareAndSwap(nil, rec) {
		*mark = reg.Snapshot()
	}
}

// hopKey carries the open client span and the op's byte tally to the
// tracing transport.
type hopKey struct{}

type hop struct {
	op      int64
	span    *handle
	reqB    atomic.Int64
	respB   atomic.Int64
	attempt atomic.Int64
}

// tracingTransport stamps traceHeader and counts wire bytes for requests
// whose context carries a hop.
type tracingTransport struct{ next http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, _ := r.Context().Value(hopKey{}).(*hop)
	if h == nil {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(traceHeader, fmt.Sprintf("%d/%d", h.op, h.span.sp.ID))
	if r.ContentLength > 0 {
		h.reqB.Add(r.ContentLength)
	}
	h.attempt.Add(1)
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &h.respB}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedClient is an exchange client over the tracing transport,
// reporting into reg.
func tracedClient(reg *obs.Registry) *exchange.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return exchange.NewClient(
		exchange.WithHTTPClient(&http.Client{Transport: tracingTransport{next: tr}}),
		exchange.WithMetrics(reg),
	)
}

// assessRequest mirrors Pipeline.AssessServer's request construction.
func assessRequest(name string, set *embed.SignatureSet) *exchange.AssessRequest {
	req := &exchange.AssessRequest{Schema: name, IDs: make([]string, set.Len()), Signatures: make([][]float64, set.Len())}
	for i, id := range set.IDs {
		req.IDs[i] = id.String()
		req.Signatures[i] = set.Matrix.RowView(i)
	}
	return req
}

// assessServerTraced is AssessServer rebuilt from its layer calls: enrich
// and encode, then the /v1/assess round trip ("exchange.client", with the
// hub's "exchange.server" span beneath it).
func assessServerTraced(ctx context.Context, rec *recorder, opID int64, parent *handle, c *exchange.Client,
	enc embed.Encoder, enrichers []collabscope.Enricher, s *schema.Schema, base, tenant string, counts map[string]float64) (map[schema.ElementID]bool, error) {
	set, err := encodeOneTraced(ctx, rec, opID, parent, enc, enrichers, s, counts)
	if err != nil {
		return nil, err
	}
	req := assessRequest(s.Name, set)
	hp := &hop{op: opID, span: rec.start(opID, parent, "exchange.client")}
	resp, err := c.Assess(context.WithValue(ctx, hopKey{}, hp), base, tenant, req)
	hp.span.end()
	counts["exchange.requests"] += float64(hp.attempt.Load())
	counts["exchange.request_bytes"] += float64(hp.reqB.Load())
	counts["exchange.response_bytes"] += float64(hp.respB.Load())
	if err != nil {
		return nil, err
	}
	out := make(map[schema.ElementID]bool, len(set.IDs))
	for i, id := range set.IDs {
		out[id] = resp.Verdicts[i].Linkable
	}
	return out, nil
}

// hubExtras reads the exchange counters accumulated since mark in the
// registry shared by the hub and the traced clients.
func hubExtras(reg *obs.Registry, mark obs.Snapshot) map[string]float64 {
	now := reg.Snapshot()
	d := func(name string) float64 { return float64(now.Counters[name] - mark.Counters[name]) }
	h := now.Histograms["service.assess"]
	m := mark.Histograms["service.assess"]
	assessMS := 0.0
	if n := h.Count - m.Count; n > 0 {
		assessMS = float64(h.SumNS-m.SumNS) / float64(n) / 1e6
	}
	reused, rescored := d("service.delta.reused"), d("service.delta.rescored")
	return map[string]float64{
		"exchange.server.assess_ms":  assessMS,
		"exchange.delta_reuse_ratio": ratio(reused, reused+rescored),
		"exchange.delta_passes":      reused + rescored,
		"exchange.coalesced":         d("service.coalesced"),
		"exchange.shed":              d("service.shed"),
		"exchange.retries":           d("exchange.retries"),
	}
}

// ---------------------------------------------------------------------------
// evolve_churn

const churnTenant = "churn"

type churnInstance struct {
	sched     *churnSchedule
	enrichers []collabscope.Enricher
	p         *collabscope.Pipeline
	refP      *collabscope.Pipeline
	hub       *hub
	stateDir  string
	deltaDir  string
	regDir    string
	models    []*core.Model // current published model per schema index
	client    *exchange.Client
	rec       recorderRef
	mark      obs.Snapshot
	// coldTrainMS times each reference retrain (encode + Algorithm 1 of
	// one schema), the cold-path cost UpdateModel competes with.
	coldTrainMS []float64
}

func setupChurn(ctx context.Context, seed int64, dir string, traced bool) (instance, error) {
	sched, err := newChurnSchedule(seed)
	if err != nil {
		return nil, err
	}
	ens, err := collabscope.ParseEnrichers("lexicon,fk")
	if err != nil {
		return nil, err
	}
	in := &churnInstance{
		sched:     sched,
		p:         newPipeline(benchWorkers, ens...),
		refP:      newPipeline(refWorkers, ens...),
		enrichers: ens,
		stateDir:  filepath.Join(dir, "state"),
		deltaDir:  filepath.Join(dir, "delta"),
		regDir:    filepath.Join(dir, "registry"),
	}
	var reg *obs.Registry
	opts := []exchange.ServerOption{exchange.WithServerWorkers(benchWorkers), exchange.WithRegistryDir(in.regDir)}
	var ref *recorderRef
	if traced {
		reg = obs.NewRegistry()
		opts = append(opts, exchange.WithServerMetrics(reg))
		ref = &in.rec
		in.client = tracedClient(reg)
	}
	srv, err := exchange.NewServer(opts...)
	if err != nil {
		return nil, err
	}
	if in.hub, err = startHub(srv, reg, ref); err != nil {
		return nil, err
	}
	// Initial full fits and uploads of the tenant's three schemas.
	for _, s := range sched.Schemas() {
		up, err := in.p.UpdateModel(s, paperVariance, in.stateDir)
		if err != nil {
			in.close()
			return nil, err
		}
		if err := in.p.UploadModel(ctx, in.hub.base, churnTenant, up.Model); err != nil {
			in.close()
			return nil, err
		}
		in.models = append(in.models, up.Model)
	}
	// Warm-up: the first revision round.
	if _, err := in.op(ctx, nil, 0, nil); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// reference is per round: verify retrains every schema cold and assesses
// in process, so nothing is precomputed.
func (in *churnInstance) reference(context.Context) error { return nil }

func (in *churnInstance) op(ctx context.Context, rec *recorder, opID int64, root *handle) (outcome, error) {
	rev := in.sched.Next()
	schemas := append([]*schema.Schema(nil), in.sched.Schemas()...)
	probe := (rev.Index + 1) % len(schemas) // an unchanged schema
	var counts map[string]float64
	if rec != nil {
		in.rec.attach(rec, in.hub.reg, &in.mark)
		counts = map[string]float64{}
	}

	// Write half: incremental update, then republish.
	sw := obs.NewStopwatch()
	var m *core.Model
	var err error
	if rec == nil {
		var up *collabscope.ModelUpdate
		if up, err = in.p.UpdateModel(rev.Schema, paperVariance, in.stateDir); err == nil {
			m = up.Model
			err = in.p.UploadModel(ctx, in.hub.base, churnTenant, m)
		}
	} else {
		m, err = in.updateTraced(ctx, rec, opID, root, rev.Schema, counts)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%v: %w", rev, err)
	}
	in.models[rev.Index] = m
	update := sw.Elapsed()

	// Read half: every schema through the hub, then one unchanged schema
	// through the delta-state cache.
	sw = obs.NewStopwatch()
	server := make([]map[schema.ElementID]bool, len(schemas))
	for i, s := range schemas {
		if rec == nil {
			res, err := in.p.AssessServer(ctx, s, in.hub.base, churnTenant)
			if err != nil {
				return outcome{}, err
			}
			server[i] = res.Verdicts
		} else if server[i], err = assessServerTraced(ctx, rec, opID, root, in.client, in.p.Encoder(), in.enrichers, s, in.hub.base, churnTenant, counts); err != nil {
			return outcome{}, err
		}
	}
	var foreign []*core.Model
	for j, fm := range in.models {
		if j != probe {
			foreign = append(foreign, fm)
		}
	}
	var delta map[schema.ElementID]bool
	if rec == nil {
		delta, _, err = in.p.AssessDeltaState(schemas[probe], foreign, in.deltaDir)
	} else {
		delta, err = in.deltaTraced(ctx, rec, opID, root, schemas[probe], foreign, counts)
	}
	if err != nil {
		return outcome{}, err
	}
	reassess := sw.Elapsed()

	return outcome{
		phases: map[string]time.Duration{"update": update, "reassess": reassess},
		counts: counts,
		verify: func() error { return in.verify(rev, schemas, server, probe, delta) },
	}, nil
}

// updateTraced is UpdateModel + UploadModel rebuilt from their layer calls:
// enrich and encode → LoadModelState → Apply → Model → Save → upload.
func (in *churnInstance) updateTraced(ctx context.Context, rec *recorder, opID int64, root *handle, s *schema.Schema, counts map[string]float64) (*core.Model, error) {
	set, err := encodeOneTraced(ctx, rec, opID, root, in.p.Encoder(), in.enrichers, s, counts)
	if err != nil {
		return nil, err
	}
	h := rec.start(opID, root, "checkpoint.load")
	store, err := checkpoint.Open(in.stateDir)
	var st *core.ModelState
	if err == nil {
		st, _, err = core.LoadModelState(store, s.Name)
	}
	h.end()
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("no incremental state for %s", s.Name)
	}
	h = rec.start(opID, root, "core.apply")
	_, err = st.Apply(set)
	h.end()
	if err != nil {
		return nil, err
	}
	h = rec.start(opID, root, "core.refit")
	m, err := st.Model(paperVariance)
	h.end()
	if err != nil {
		return nil, err
	}
	h = rec.start(opID, root, "checkpoint.save")
	err = st.Save(store)
	h.end()
	if err != nil {
		return nil, err
	}
	h = rec.start(opID, root, "exchange.upload")
	_, err = in.client.Upload(ctx, in.hub.base, churnTenant, m)
	h.end()
	return m, err
}

// deltaTraced is AssessDeltaState rebuilt from its layer calls.
func (in *churnInstance) deltaTraced(ctx context.Context, rec *recorder, opID int64, root *handle, s *schema.Schema, foreign []*core.Model, counts map[string]float64) (map[schema.ElementID]bool, error) {
	set, err := encodeOneTraced(ctx, rec, opID, root, in.p.Encoder(), in.enrichers, s, counts)
	if err != nil {
		return nil, err
	}
	h := rec.start(opID, root, "core.delta")
	var out map[schema.ElementID]bool
	store, err := checkpoint.Open(in.deltaDir)
	if err == nil {
		var rep core.DeltaReport
		out, rep, err = core.AssessDeltaStore(ctx, benchWorkers, set, foreign, core.AssessConfig{}, store, "cli")
		counts["core.delta.reused"] += float64(rep.Reused)
		counts["core.delta.rescored"] += float64(rep.Rescored)
	}
	h.end()
	return out, err
}

// verify retrains every schema of the round cold and checks the hub's and
// the delta-state verdicts against an in-process assessment.
func (in *churnInstance) verify(rev revision, schemas []*schema.Schema, server []map[schema.ElementID]bool, probe int, delta map[schema.ElementID]bool) error {
	sets := make([]*embed.SignatureSet, len(schemas))
	models := make([]*core.Model, len(schemas))
	for i, s := range schemas {
		sw := obs.NewStopwatch()
		sets[i] = in.refP.Encode(s)
		m, err := core.Train(sets[i], paperVariance)
		if err != nil {
			return err
		}
		in.coldTrainMS = append(in.coldTrainMS, float64(sw.Elapsed())/1e6)
		models[i] = m
	}
	for i := range schemas {
		var foreign []*core.Model
		for j, m := range models {
			if j != i {
				foreign = append(foreign, m)
			}
		}
		want := core.Assess(sets[i], foreign)
		if err := sameVerdicts(want, server[i]); err != nil {
			return fmt.Errorf("%v: hub verdicts for %s: %w", rev, schemas[i].Name, err)
		}
		if i == probe {
			if err := sameVerdicts(want, delta); err != nil {
				return fmt.Errorf("%v: delta-state verdicts for %s: %w", rev, schemas[i].Name, err)
			}
		}
	}
	return nil
}

func (in *churnInstance) info() []metric {
	return []metric{
		{"state_bytes", float64(dirBytes(in.stateDir)), "bytes"},
		{"registry_bytes", float64(dirBytes(in.regDir)), "bytes"},
		{"cold_train_ms", median(in.coldTrainMS), "ms"},
	}
}

func (in *churnInstance) layerExtras() map[string]float64 {
	ex := hubExtras(in.hub.reg, in.mark)
	ex["checkpoint.state_bytes"] = float64(dirBytes(in.stateDir))
	ex["checkpoint.registry_bytes"] = float64(dirBytes(in.regDir))
	return ex
}

func (in *churnInstance) close() {
	if in.hub != nil {
		in.hub.close()
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
