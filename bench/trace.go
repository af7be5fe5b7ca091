package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The traced run replays a workload's first requests in this process,
// single-threaded, and records a span around every call into a layer.
// Spans inside the program do not exist yet, so a request is measured
// three times on identically prepared services — once through the HTTP
// handler, once through Service.Execute/Query, once stage by stage
// through the layers' public functions — and the three measurements are
// linked into one tree by parent index:
//
//	http                     Service.Handler() round trip
//	├─ service               Service.Execute / Service.Query (service.update: Service.Update)
//	│  ├─ sparql.parse       sparql.Parse              (/query only)
//	│  ├─ sparql.bind        Query.Bind                (plan-cache miss only)
//	│  ├─ plan.compile       plan.Compile              (plan-cache miss only)
//	│  ├─ plan.optimize      plan.Optimize             (plan-cache miss only)
//	│  └─ exec.run           exec.RunCtx
//	├─ dict.decode           Outcome.DecodedRows
//	└─ service.encode        JSON encoding of the payload
//
// A span's self time is its duration minus its children's durations:
// service self time is admission, cache lookup and bookkeeping; http self
// time is routing, request decoding and response writing. Later spans
// inside the program must reuse these names.

// A span is one timed call. Start and End are nanoseconds since the
// trace began; Parent indexes the span that caused this one (-1 for a
// request's root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// A tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// selfTimes returns every span's duration minus its children's, floored
// at zero (children are measured by separate calls, so on a noisy box
// they can add up to slightly more than their parent).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerNames are the spans the per-layer metrics are computed from, and
// the metric each feeds (self time, microseconds, median over reads).
var layerNames = []struct{ span, metric string }{
	{"sparql.parse", "sparql.parse_us"},
	{"sparql.bind", "sparql.bind_us"},
	{"plan.compile", "plan.compile_us"},
	{"plan.optimize", "plan.optimize_us"},
	{"exec.run", "exec.run_us"},
	{"dict.decode", "dict.decode_us"},
	{"service.encode", "service.encode_us"},
	{"service", "service.self_us"},
	{"http", "http.self_us"},
}

// A traceResult is what the traced run measured.
type traceResult struct {
	requests int
	reads    int
	layerUs  map[string]float64 // metric name → median self time per read
	// coverage is the share of in-process Service time the layers below
	// it account for; frontShare the share of the whole request spent in
	// sparql and plan.
	coverage, frontShare float64
	tracedRPS, plainRPS  float64
	file                 string
}

// payload mirrors the service's response object, for the encode stage.
type payload struct {
	Vars          []string   `json:"vars"`
	Rows          [][]string `json:"rows"`
	RowCount      int        `json:"row_count"`
	Cout          float64    `json:"cout"`
	Work          float64    `json:"work"`
	Scanned       int        `json:"scanned"`
	DurationUs    int64      `json:"duration_us"`
	PlanSignature string     `json:"plan_signature"`
	CacheHit      bool       `json:"cache_hit"`
	Generation    uint64     `json:"generation"`
}

// traceOps is the stream's first n ops in the order a closed loop of
// equally fast clients would send them.
func traceOps(w *workload, sc scale, seed int64, st *stream, n int) []op {
	clients := len(st.clients)
	reads := make([]int, clients)
	updates := make([]int, clients)
	ops := make([]op, 0, n)
	for i := 0; len(ops) < n; i++ {
		c, turn := i%clients, i/clients+1
		if w.updates && turn%updateEvery == 0 {
			ops = append(ops, updateOp(sc, seed, c, updates[c]))
			updates[c]++
			continue
		}
		seq := st.clients[c]
		ops = append(ops, st.queries[seq[reads[c]%len(seq)]].op)
		reads[c]++
	}
	return ops
}

// A replayer owns one in-process service over the fixture's snapshot.
type replayer struct {
	svc      *service.Service
	handler  http.Handler
	prepared map[string]*service.Prepared
}

func newReplayer(w *workload, fx *fixture, st *stream, opts service.Options) (*replayer, error) {
	svc, err := service.Load(fx.path, opts)
	if err != nil {
		return nil, err
	}
	r := &replayer{svc: svc, handler: svc.Handler(), prepared: map[string]*service.Prepared{}}
	for _, name := range w.prepared {
		if r.prepared[name], err = svc.Prepare(name, templates[name]); err != nil {
			return nil, err
		}
	}
	for _, q := range st.warm {
		if err := r.roundTrip(st.queries[q].op); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// roundTrip sends o through the service's HTTP handler, in process.
func (r *replayer) roundTrip(o op) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, o.path, strings.NewReader(string(o.body)))
	r.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: status %d, body %.200s", o.path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// call runs a read through Service.Execute or Service.Query.
func (r *replayer) call(ctx context.Context, q query) (*service.Outcome, error) {
	if q.op.path == "/execute" {
		return r.svc.Execute(ctx, r.prepared[q.tmpl], q.binding)
	}
	return r.svc.Query(ctx, templates[q.tmpl], q.binding)
}

// A compiled is a query lowered against one store generation.
type compiled struct {
	c *plan.Compiled
	p *plan.Plan
}

// runTrace replays up to sc.tracedRequests ops (fewer when budget runs
// out first) and writes the spans to file.
func runTrace(ctx context.Context, w *workload, fx *fixture, st *stream, seed int64, opts service.Options, budget time.Duration, file string) (*traceResult, error) {
	opts.AllowUpdate = w.updates
	// Three services in the same state: a request must meet the same plan
	// cache whichever way it is measured.
	var reps [3]*replayer
	for i := range reps {
		r, err := newReplayer(w, fx, st, opts)
		if err != nil {
			return nil, fmt.Errorf("in-process service: %w", err)
		}
		reps[i] = r
	}
	viaHandler, direct, plain := reps[0], reps[1], reps[2]
	ops := traceOps(w, fx.sc, seed, st, fx.sc.tracedRequests)
	execOpts := opts.Exec
	memo := map[int]compiled{}

	tr := &tracer{t0: time.Now()}
	done := 0
	for req, o := range ops {
		if time.Since(tr.t0) > budget {
			break
		}
		done++
		root := tr.begin("http", -1, req)
		err := viaHandler.roundTrip(o)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if o.query < 0 {
			s := tr.begin("service.update", root, req)
			_, err := direct.svc.Update(ctx, o.update)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			clear(memo) // plans are compiled against one store generation
			continue
		}
		q := st.queries[o.query]
		s := tr.begin("service", root, req)
		out, err := direct.call(ctx, q)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		tmpl := template(q.tmpl)
		if o.path == "/query" {
			i := tr.begin("sparql.parse", s, req)
			tmpl, err = sparql.Parse(templates[q.tmpl])
			tr.end(i)
			if err != nil {
				return nil, err
			}
		}
		cp, ok := memo[o.query]
		if !out.CacheHit || !ok {
			// The stages run on every miss, as they do inside the
			// service; on a hit they only supply the plan to execute and
			// leave no span.
			if cp, err = compileStages(tr, tmpl, q, direct.svc.Store(), s, req, !out.CacheHit); err != nil {
				return nil, err
			}
			memo[o.query] = cp
		}
		i := tr.begin("exec.run", s, req)
		_, err = exec.RunCtx(ctx, cp.c, cp.p, direct.svc.Store(), execOpts)
		tr.end(i)
		if err != nil {
			return nil, err
		}
		i = tr.begin("dict.decode", root, req)
		rows := out.DecodedRows()
		tr.end(i)
		vars := make([]string, len(out.Result.Vars))
		for j, v := range out.Result.Vars {
			vars[j] = "?" + string(v)
		}
		i = tr.begin("service.encode", root, req)
		err = json.NewEncoder(io.Discard).Encode(payload{
			Vars: vars, Rows: rows, RowCount: len(rows), Cout: out.Result.Cout, Work: out.Result.Work,
			Scanned: out.Result.Scanned, DurationUs: out.Result.Duration.Microseconds(),
			PlanSignature: out.Plan.Signature, CacheHit: out.CacheHit, Generation: out.Generation,
		})
		tr.end(i)
		out.Close()
		if err != nil {
			return nil, err
		}
	}

	// The same requests without span bookkeeping: the difference in
	// handler round trips per second is the tracing overhead.
	t0 := time.Now()
	for _, o := range ops[:done] {
		if err := plain.roundTrip(o); err != nil {
			return nil, err
		}
	}
	plainS := time.Since(t0).Seconds()

	res := summarize(tr.spans, done)
	res.plainRPS = float64(done) / plainS
	res.file = file
	return res, writeTrace(file, w.name, seed, tr.spans)
}

// compileStages binds, compiles and optimizes q against st, under spans
// when record is set.
func compileStages(tr *tracer, tmpl *sparql.Query, q query, st store.Source, parent, req int, record bool) (compiled, error) {
	stage := func(name string, f func() error) error {
		if !record {
			return f()
		}
		i := tr.begin(name, parent, req)
		err := f()
		tr.end(i)
		return err
	}
	var (
		bound *sparql.Query
		cp    compiled
	)
	if err := stage("sparql.bind", func() (err error) { bound, err = tmpl.Bind(q.binding); return }); err != nil {
		return cp, err
	}
	if err := stage("plan.compile", func() (err error) { cp.c, err = plan.Compile(bound, st); return }); err != nil {
		return cp, err
	}
	err := stage("plan.optimize", func() (err error) { cp.p, err = plan.Optimize(cp.c, plan.NewEstimator(st)); return })
	return cp, err
}

// summarize turns the spans of n requests into per-layer medians over
// the read requests (those with a "service" span; an update's is named
// "service.update").
func summarize(spans []span, n int) *traceResult {
	self := selfTimes(spans)
	reads := map[int]bool{}
	for _, s := range spans {
		if s.Name == "service" {
			reads[s.Req] = true
		}
	}
	selfUs := map[string]map[int]float64{} // span name → request → self time
	var httpNs, readNs, serviceNs, belowNs, frontNs int64
	for i, s := range spans {
		d := s.End - s.Start
		if s.Name == "http" {
			httpNs += d
		}
		if !reads[s.Req] {
			continue
		}
		if selfUs[s.Name] == nil {
			selfUs[s.Name] = map[int]float64{}
		}
		selfUs[s.Name][s.Req] += float64(self[i]) / 1e3
		switch {
		case s.Name == "http":
			readNs += d
		case s.Name == "service":
			serviceNs += d
		case s.Parent >= 0 && spans[s.Parent].Name == "service":
			belowNs += d
			if strings.HasPrefix(s.Name, "sparql.") || strings.HasPrefix(s.Name, "plan.") {
				frontNs += d
			}
		}
	}
	res := &traceResult{requests: n, reads: len(reads), layerUs: map[string]float64{}}
	for _, l := range layerNames {
		xs := make([]float64, 0, len(reads))
		for req := range reads {
			xs = append(xs, selfUs[l.span][req]) // 0 where the request never entered the layer
		}
		res.layerUs[l.metric] = median(xs)
	}
	if serviceNs > 0 {
		res.coverage = float64(belowNs) / float64(serviceNs)
	}
	if readNs > 0 {
		res.frontShare = float64(frontNs) / float64(readNs)
	}
	if httpNs > 0 {
		res.tracedRPS = float64(n) / (float64(httpNs) / 1e9)
	}
	return res
}

func writeTrace(file, workload string, seed int64, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
