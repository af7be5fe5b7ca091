package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/bsbm"
)

// requestTimeout bounds one request, so a hung server yields counted
// failures, not a hung benchmark.
const requestTimeout = 20 * time.Second

// maxOverrun is how many times the requested length a run may last while
// it still lacks the read samples p99 needs.
const maxOverrun = 3

// maxFailures is how many failed ops end a client's run: the run is
// incorrect from the first one, and a dead server fails them in a tight
// loop.
const maxFailures = 100

// maxFailureNotes is how many failure messages a run keeps for the report.
const maxFailureNotes = 5

// A loadgen replays a stream against a running server from a closed loop:
// each client sends its next request only when the previous one has
// completed, over its own keep-alive connection. BSBM's and SNB's drivers
// are N waiting clients too, and on a two-core box shared with the server
// an open-loop generator's own lateness would pollute the tail.
type loadgen struct {
	url     string // http://host:port of the server
	w       *workload
	sc      scale
	seed    int64
	st      *stream
	answers []answer // reference answer per query; nil while warming up
	base    int      // triples in the fixture, before any update
}

// A runResult is what one timed run measured.
type runResult struct {
	elapsed   float64 // seconds, first request sent to last response read
	attempted int
	failed    int
	notes     []string // the first few failures

	readMs    []float64 // client-side latency of every correct read
	readQuery []int     // the query behind each readMs sample
	hits      int       // reads the server answered from its plan cache

	updateMs  []float64 // latency of every acknowledged update
	compacted []bool    // whether that update folded the delta (same index)
	inserted  int       // batches acknowledged as inserted, minus deleted ones
	sentinel  string    // an inserted offer that no later update deleted
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) merge(o *runResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, n := range o.notes {
		if len(r.notes) < maxFailureNotes {
			r.notes = append(r.notes, n)
		}
	}
	r.readMs = append(r.readMs, o.readMs...)
	r.readQuery = append(r.readQuery, o.readQuery...)
	r.hits += o.hits
	r.updateMs = append(r.updateMs, o.updateMs...)
	r.compacted = append(r.compacted, o.compacted...)
	r.inserted += o.inserted
	if o.sentinel != "" {
		r.sentinel = o.sentinel
	}
}

// A conn is one client's keep-alive connection and its reusable buffers.
type conn struct {
	hc      *http.Client
	tr      *http.Transport
	buf     bytes.Buffer
	scratch []byte
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// post sends body and reads the whole response into c.buf.
func (c *conn) post(url string, body []byte) (status int, err error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// prepare registers the workload's templates.
func (lg *loadgen) prepare() error {
	c := newConn()
	defer c.close()
	for _, name := range lg.w.prepared {
		body, _ := json.Marshal(map[string]string{"name": name, "query": templates[name]})
		status, err := c.post(lg.url+"/prepare", body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("/prepare %s: status %d, err %v, body %s", name, status, err, c.buf.Bytes())
		}
	}
	return nil
}

// warmUp plays the stream's warm-up queries once, split over the clients.
func (lg *loadgen) warmUp(clients int) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn()
			defer cn.close()
			for i := c; i < len(lg.st.warm); i += clients {
				o := lg.st.queries[lg.st.warm[i]].op
				status, err := cn.post(lg.url+o.path, o.body)
				if err != nil || status != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up %s: status %d, err %v, body %.200s", o.path, status, err, cn.buf.Bytes())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run replays the stream for the given duration and then, for an update
// workload, checks the store the writes left behind.
func (lg *loadgen) run(ctx context.Context, d time.Duration) *runResult {
	clients := len(lg.st.clients)
	parts := make([]*runResult, clients)
	ends := make([]time.Time, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = lg.client(ctx, c, deadline, start.Add(maxOverrun*d))
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	total := &runResult{}
	end := start
	for c, p := range parts {
		total.merge(p)
		if ends[c].After(end) {
			end = ends[c]
		}
	}
	total.elapsed = end.Sub(start).Seconds()
	if lg.w.updates {
		lg.checkStore(total)
	}
	return total
}

// client is one closed-loop client: it replays its read sequence
// cyclically, replacing every updateEvery-th op of an update workload by
// its next update, until the deadline — or, on a box so slow that p99
// would lack samples by then, until it has its share of them or reaches
// the hard limit. It gives up early when the benchmark is interrupted or
// the server is evidently gone, rather than count failures until then.
func (lg *loadgen) client(ctx context.Context, c int, deadline, limit time.Time) *runResult {
	r := &runResult{}
	cn := newConn()
	defer cn.close()
	seq := lg.st.clients[c]
	need := lg.sc.minReadSamples/len(lg.st.clients) + 1
	reads, updates := 0, 0
	for i := 1; ctx.Err() == nil && r.failed < maxFailures; i++ {
		if now := time.Now(); !now.Before(deadline) && (len(r.readMs) >= need || !now.Before(limit)) {
			break
		}
		r.attempted++
		if lg.w.updates && i%updateEvery == 0 {
			lg.update(cn, r, c, updates)
			updates++
			continue
		}
		q := seq[reads%len(seq)]
		reads++
		o := lg.st.queries[q].op
		t0 := time.Now()
		status, err := cn.post(lg.url+o.path, o.body)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil || status != http.StatusOK {
			r.fail("%s %s: status %d, err %v, body %.200s", o.path, lg.st.queries[q].class, status, err, cn.buf.Bytes())
			continue
		}
		hit, err := lg.checkRead(q, cn)
		if err != nil {
			r.fail("%s %s %v: %v", o.path, lg.st.queries[q].tmpl, lg.st.queries[q].binding, err)
			continue
		}
		if hit {
			r.hits++
		}
		r.readMs = append(r.readMs, ms)
		r.readQuery = append(r.readQuery, q)
	}
	return r
}

// checkRead compares the response in cn.buf with query q's reference
// answer: same row count, same rows in any order, nothing truncated — and
// on a read-only workload the same deterministic accounting, which no
// store backing, shard count or engine may change.
func (lg *loadgen) checkRead(q int, cn *conn) (hit bool, err error) {
	got, err := parseResponse(cn.buf.Bytes(), &cn.scratch)
	if err != nil {
		return false, err
	}
	want := lg.answers[q]
	switch {
	case got.RowCount != want.rows || got.Rows != want.rows:
		return false, fmt.Errorf("row_count %d with %d rows in the body, reference has %d", got.RowCount, got.Rows, want.rows)
	case got.RowHash != want.hash:
		return false, fmt.Errorf("rows differ from the reference (%d rows, hash %x, want %x)", got.Rows, got.RowHash, want.hash)
	case !lg.w.updates && (got.Work != want.work || got.Cout != want.cout || got.Scanned != want.scanned):
		return false, fmt.Errorf("accounting work/cout/scanned %v/%v/%d, reference %v/%v/%d",
			got.Work, got.Cout, got.Scanned, want.work, want.cout, want.scanned)
	}
	return got.CacheHit, nil
}

// update sends client c's k-th update and checks its acknowledgement.
func (lg *loadgen) update(cn *conn, r *runResult, c, k int) {
	o := updateOp(lg.sc, lg.seed, c, k)
	insert, batch := updateKind(lg.sc, k)
	t0 := time.Now()
	status, err := cn.post(lg.url+o.path, o.body)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil || status != http.StatusOK {
		r.fail("/update: status %d, err %v, body %.200s", status, err, cn.buf.Bytes())
		return
	}
	var ack struct {
		Inserted, Deleted int
		Compacted         bool
	}
	if err := json.Unmarshal(cn.buf.Bytes(), &ack); err != nil {
		r.fail("/update: decoding acknowledgement: %v", err)
		return
	}
	want := 3 * lg.sc.updateOffers
	if (insert && ack.Inserted != want) || (!insert && ack.Deleted != want) {
		r.fail("/update: acknowledged +%d -%d triples, sent %d", ack.Inserted, ack.Deleted, want)
		return
	}
	if insert {
		r.inserted++
		r.sentinel = benchOffer(lg.seed, c, batch, 0)
	} else {
		r.inserted--
	}
	r.updateMs = append(r.updateMs, ms)
	r.compacted = append(r.compacted, ack.Compacted)
}

// checkStore verifies what an update run left behind: the triple count is
// the base plus the live inserted batches, and the sentinel — the last
// batch a client inserted, which its lagged deletes cannot have reached —
// is readable.
func (lg *loadgen) checkStore(r *runResult) {
	cn := newConn()
	defer cn.close()
	resp, err := cn.hc.Get(lg.url + "/stats")
	if err != nil {
		r.fail("/stats: %v", err)
		return
	}
	var st struct {
		Store struct{ Triples int }
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		r.fail("/stats: %v", err)
		return
	}
	r.attempted++
	if want := lg.base + r.inserted*3*lg.sc.updateOffers; st.Store.Triples != want {
		r.fail("/stats reports %d triples after the run, want base + live batches = %d", st.Store.Triples, want)
	}
	if r.sentinel == "" {
		return
	}
	r.attempted++
	body, _ := json.Marshal(map[string]string{
		"query": fmt.Sprintf("SELECT ?price WHERE { <%s> <%sprice> ?price . }", r.sentinel, bsbm.NS),
	})
	status, err := cn.post(lg.url+"/query", body)
	if err != nil || status != http.StatusOK {
		r.fail("sentinel read: status %d, err %v, body %.200s", status, err, cn.buf.Bytes())
		return
	}
	if got, err := parseResponse(cn.buf.Bytes(), &cn.scratch); err != nil || got.Rows != 1 {
		r.fail("sentinel offer %s: %d rows, err %v, want 1 row", r.sentinel, got.Rows, err)
	}
}
