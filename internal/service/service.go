// Package service implements a long-lived, concurrency-safe query service
// over an immutable snapshot-loaded store — the resident-engine layer the
// one-shot CLIs lack. It provides:
//
//   - prepared templates: a query template is parsed once and executed many
//     times by substituting parameter bindings, never re-parsing;
//   - a shared plan cache: an LRU keyed by canonical template text plus the
//     binding's signature (plan.CacheKey), so repeated bindings skip
//     compilation and DPsub join ordering entirely, with hit/miss/eviction
//     counters;
//   - admission control: a bounded token pool with a request-queue cap and
//     fast ErrOverloaded (HTTP 429) rejection, keeping the engine's
//     per-query allocations bounded under load;
//   - hot snapshot swap: Reload/Swap atomically install a new store while
//     in-flight queries finish against the old one (each request pins one
//     snapshot state for its whole execution);
//   - a JSON HTTP API (Handler): /query, /prepare, /execute, /stats,
//     /healthz, /reload.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/store"
)

// ErrOverloaded is returned when all workers are busy and the request queue
// is full. The HTTP layer maps it to 429 Too Many Requests.
var ErrOverloaded = errors.New("service: overloaded, request rejected")

// inputError marks errors caused by the request (bad query text, unbound or
// unknown parameters) rather than by execution; the HTTP layer maps it to
// 400.
type inputError struct{ err error }

func (e *inputError) Error() string { return e.err.Error() }
func (e *inputError) Unwrap() error { return e.err }

func badInput(err error) error {
	if err == nil {
		return nil
	}
	return &inputError{err: err}
}

// IsInputError reports whether err was caused by the request itself.
func IsInputError(err error) bool {
	var ie *inputError
	return errors.As(err, &ie)
}

// Options configures a Service. The zero value means: GOMAXPROCS workers, a
// queue of 4x the workers, a 1024-entry plan cache, and the exec defaults
// (exact paper accounting). Use DefaultOptions for the serving-mode
// defaults (EarlyStop on).
type Options struct {
	// Workers bounds concurrent query executions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the ones
	// already running; arrivals past the cap are rejected immediately with
	// ErrOverloaded. 0 means 4*Workers; negative means no queue (reject as
	// soon as all workers are busy).
	QueueDepth int
	// PlanCacheSize is the shared plan cache's entry capacity. 0 means
	// 1024; negative disables caching.
	PlanCacheSize int
	// Exec are the execution options every query runs with. Each query
	// runs on one goroutine, so Workers alone bounds the CPU in use.
	Exec exec.Options
	// AllowReload enables the HTTP POST /reload endpoint, which loads any
	// server-readable path a client names. Off by default — enable only
	// when the listener is trusted (cmd/served -allow-reload). The
	// in-process Reload/Swap methods are always available.
	AllowReload bool
	// AllowUpdate enables the HTTP POST /update endpoint (SPARQL-Update
	// INSERT DATA / DELETE DATA). Off by default — enable only when the
	// listener is trusted (cmd/served -allow-update). The in-process
	// Update method is always available.
	AllowUpdate bool
	// CompactThreshold is the auto-compaction policy: when a commit's
	// pending delta (inserts + deletes) reaches this size, the delta is
	// folded into a fresh fully indexed store instead of published as an
	// overlay, bounding the merge-on-read cost every query pays. 0 means
	// adaptive — max(1024, base/8) changes, so small stores compact
	// eagerly and large ones amortize the rebuild; negative disables
	// auto-compaction (overlays grow until Compact is called).
	CompactThreshold int
	// TraceSample enables 1-in-N execution tracing: every Nth query
	// (counted across /query and /execute) runs with a span collector and
	// the finished trace is retained in the recent-trace ring served by
	// GET /trace/recent. 0 disables sampling. Tracing never changes
	// results or accounting; only the sampled query pays the collection
	// overhead.
	TraceSample int
	// SlowQueryMs arms slow-query capture: every query runs traced, and
	// any whose execution reaches this many milliseconds is retained in
	// the ring (marked slow) and emitted as one structured JSON line to
	// SlowLog. 0 disables — queries then run untraced unless sampled or
	// explicitly analyzed.
	SlowQueryMs int
	// TraceRecent is the recent-trace ring capacity. 0 means 64.
	TraceRecent int
	// SlowLog receives the structured slow-query log, one JSON object per
	// line. nil disables the log; slow traces are still retained in the
	// ring when SlowQueryMs is set.
	SlowLog io.Writer
}

// DefaultOptions returns the serving-mode defaults: EarlyStop, so LIMIT
// terminates pipelines as soon as possible. Paper experiments that need
// draining accounting pass exec.Options{} instead.
func DefaultOptions() Options {
	return Options{Exec: exec.Options{EarlyStop: true}}
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = 4 * o.Workers
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	switch {
	case o.PlanCacheSize == 0:
		o.PlanCacheSize = 1024
	case o.PlanCacheSize < 0:
		o.PlanCacheSize = 0
	}
	if o.TraceRecent == 0 {
		o.TraceRecent = 64
	}
	return o
}

// snapState is one immutable snapshot generation: the store, its plan cache
// (cached plans embed this store's dictionary IDs, so the cache lives and
// dies with the snapshot) and bookkeeping. Requests pin the state once
// (pinState) and use it for their whole execution, so a concurrent swap
// never mixes stores mid-query.
//
// The pin count is what makes /reload over mmap-backed stores safe: it
// starts at 1 (the published reference, dropped when a swap retires the
// generation) and counts one per in-flight query. A mapped generation
// holds its own reference on the mapping backing the store, released
// only when the last pin drops. The munmap syscall is thus deferred
// until every query whose result rows and dictionary still point into the
// old mapping has drained.
type snapState struct {
	store  *store.Store
	gen    uint64
	source string
	cache  *planCache

	svc     *Service
	mapping *store.Mapping // generation's retained mapping ref, nil for heap
	pins    atomic.Int64   // published ref + in-flight queries
	retired atomic.Bool    // set when a swap replaced this generation
}

// newState builds a snapshot generation with the published pin, retaining
// its own reference on the mapping backing the store (if any).
func (s *Service) newState(st *store.Store, gen uint64, source string) *snapState {
	ss := &snapState{
		store:  st,
		gen:    gen,
		source: source,
		cache:  newPlanCache(s.opts.PlanCacheSize, &s.cacheCtr),
		svc:    s,
	}
	ss.pins.Store(1)
	if m := st.Mapping(); m != nil && m.Retain() {
		ss.mapping = m
	}
	return ss
}

// tryPin takes a pin unless the generation has already fully drained.
func (ss *snapState) tryPin() bool {
	for {
		n := ss.pins.Load()
		if n <= 0 {
			return false
		}
		if ss.pins.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// pin adds a pin; the caller must already hold one.
func (ss *snapState) pin() { ss.pins.Add(1) }

// unpin drops one pin; the last drop releases the generation's mapping
// reference (unmapping the file once no other generation shares it) and
// clears the generation from the awaiting-unmap gauge.
func (ss *snapState) unpin() {
	if ss.pins.Add(-1) != 0 || ss.mapping == nil {
		return
	}
	ss.mapping.Release()
	if ss.retired.Load() {
		ss.svc.retiredMapped.Add(-1)
	}
}

// pinState returns the current generation with a pin taken. The retry
// loop covers the race where a swap retires the loaded state and its last
// pin drops between Load and tryPin.
func (s *Service) pinState() *snapState {
	for {
		st := s.state.Load()
		if st.tryPin() {
			return st
		}
	}
}

// Prepared is a registered query template: parsed once, executed per
// binding. Its canonical Text is the plan-cache key component shared with
// identical ad-hoc queries.
type Prepared struct {
	Name       string
	Text       string // canonical template text (tmpl.String())
	Params     []sparql.Param
	tmpl       *sparql.Query
	latencyKey string // the per-template histogram key, built once
}

// newPrepared wraps a parsed template; text is its canonical rendering.
func newPrepared(name, text string, q *sparql.Query) *Prepared {
	return &Prepared{Name: name, Text: text, Params: q.Params(), tmpl: q, latencyKey: "template:" + name}
}

// kernelCounters aggregate exec.KernelStats across all queries, atomically
// so the query hot path never takes the stats mutex.
type kernelCounters struct {
	batches       atomic.Uint64
	filterRows    atomic.Uint64
	hashProbeRows atomic.Uint64
	gatherRows    atomic.Uint64
	leftJoinRows  atomic.Uint64
	unionRows     atomic.Uint64
	aggGroups     atomic.Uint64
}

func (k *kernelCounters) add(ks exec.KernelStats) {
	if ks == (exec.KernelStats{}) {
		return
	}
	k.batches.Add(uint64(ks.Batches))
	k.filterRows.Add(uint64(ks.FilterRows))
	k.hashProbeRows.Add(uint64(ks.HashProbeRows))
	k.gatherRows.Add(uint64(ks.GatherRows))
	k.leftJoinRows.Add(uint64(ks.LeftJoinRows))
	k.unionRows.Add(uint64(ks.UnionRows))
	k.aggGroups.Add(uint64(ks.AggGroups))
}

// Service is the concurrent query service. Create one with New; all methods
// are safe for concurrent use.
type Service struct {
	opts Options

	state  atomic.Pointer[snapState]
	swapMu sync.Mutex // serializes Swap/Reload

	// retiredMapped gauges retired mmap-backed generations whose mapping
	// reference is still held open by in-flight queries.
	retiredMapped atomic.Int64

	cacheCtr cacheCounters

	// pool is the CPU budget: one token per executing request.
	pool     *admission
	queued   atomic.Int64
	inflight atomic.Int64
	rejected atomic.Uint64

	// Update telemetry: applied update requests, triples going through
	// delta application, and how many commits folded the delta
	// (auto-compaction or explicit Compact).
	updates     atomic.Uint64
	compactions atomic.Uint64

	// Kernel telemetry, aggregated from exec results.
	kern kernelCounters

	// Tracing: the recent-trace ring plus the sampling sequence and
	// traced/slow counters.
	ring     *obs.Ring
	traceSeq atomic.Uint64
	traced   atomic.Uint64
	slow     atomic.Uint64
	slowMu   sync.Mutex // serializes SlowLog writes

	prepMu   sync.RWMutex
	prepared map[string]*Prepared

	statMu    sync.Mutex
	counts    map[string]uint64
	errCounts map[string]uint64
	latency   map[string]*stats.Histogram
}

// New returns a Service over st. The source string is reported by Stats
// and /healthz ("" for an in-memory store).
func New(st *store.Store, source string, opts Options) *Service {
	opts = opts.normalized()
	s := &Service{
		opts:      opts,
		pool:      newAdmission(opts.Workers),
		ring:      obs.NewRing(opts.TraceRecent),
		prepared:  make(map[string]*Prepared),
		counts:    make(map[string]uint64),
		errCounts: make(map[string]uint64),
		latency:   make(map[string]*stats.Histogram),
	}
	s.state.Store(s.newState(st, 1, source))
	return s
}

// Load opens path with store.Open (a snapshot, a shard directory or
// N-Triples, auto-detected) and returns a Service over it. The service
// owns the store's lifecycle: its generations hold a v4 mapping open and
// the last drained one unmaps it.
func Load(path string, opts Options) (*Service, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	s := New(st, path, opts)
	// New retained the service's own mapping reference; drop the creation
	// reference so the mapping's lifetime is governed entirely by
	// snapshot generations.
	releaseMapping(st)
	return s, nil
}

// releaseMapping drops the opener's reference on the mapping backing st,
// if any.
func releaseMapping(st *store.Store) {
	if m := st.Mapping(); m != nil {
		m.Release()
	}
}

// Store returns the current snapshot's store.
func (s *Service) Store() *store.Store { return s.state.Load().store }

// Generation returns the current snapshot generation (starts at 1,
// incremented by every swap).
func (s *Service) Generation() uint64 { return s.state.Load().gen }

// Swap atomically installs a new store as the next generation. In-flight
// queries finish against the snapshot they started with; the plan cache is
// replaced (its entries embed the old dictionary's IDs) while the
// cumulative cache counters survive. Returns the new generation.
func (s *Service) Swap(st *store.Store, source string) uint64 {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	return s.swapLocked(st, source)
}

// swapLocked publishes st as the next generation and retires the old one:
// its published pin is dropped, and if it was mmap-backed its mapping
// stays open (gauged as awaiting unmap) until the last in-flight query
// over it drains. The caller holds swapMu.
func (s *Service) swapLocked(st *store.Store, source string) uint64 {
	old := s.state.Load()
	gen := old.gen + 1
	s.state.Store(s.newState(st, gen, source))
	old.retired.Store(true)
	if old.mapping != nil {
		s.retiredMapped.Add(1)
	}
	old.unpin()
	return gen
}

// Reload opens path with store.Open (v4 snapshots map in O(1)) and swaps
// it in, returning the new generation and its triple count (from the
// loaded store itself, so a racing Reload cannot skew the pair). The load
// happens outside any lock; queries are served from the old snapshot until
// the swap point, and queries in flight over a retired mapped snapshot
// keep it mapped until they drain.
func (s *Service) Reload(path string) (gen uint64, triples int, err error) {
	st, err := store.Open(path)
	if err != nil {
		return 0, 0, err
	}
	gen = s.Swap(st, path)
	triples = st.Len()
	releaseMapping(st) // the new generation holds its own reference
	return gen, triples, nil
}

// UpdateResult describes one applied update.
type UpdateResult struct {
	// Generation is the snapshot generation the update published.
	Generation uint64 `json:"generation"`
	// Triples is the store size after the update.
	Triples int `json:"triples"`
	// Inserted and Deleted count the triples named by the request's
	// INSERT DATA / DELETE DATA blocks (before set semantics — inserting
	// an existing triple or deleting an absent one is a no-op).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// PendingInserts/PendingDeletes are the published snapshot's delta
	// sizes (zero right after a compaction).
	PendingInserts int `json:"pending_inserts"`
	PendingDeletes int `json:"pending_deletes"`
	// Compacted reports whether this update folded the delta into a
	// fresh fully indexed store (the size-threshold auto-compaction).
	Compacted bool `json:"compacted"`
}

// Update parses text as SPARQL-Update (ground INSERT DATA / DELETE DATA
// and pattern-driven DELETE/INSERT WHERE, whose WHERE blocks run against
// the current snapshot plus the preceding operations of the request) and
// publishes the result as the next snapshot generation, MVCC-style:
// in-flight queries finish against the snapshot they pinned; new queries
// see the new one. Small deltas are published as overlay snapshots (the
// base indexes are shared and reads merge the delta in); once the pending
// delta reaches Options.CompactThreshold it is folded into a fresh fully
// indexed store. Updates serialize with each other and with Swap/Reload.
func (s *Service) Update(ctx context.Context, text string) (res *UpdateResult, err error) {
	start := time.Now()
	defer func() { s.observe("update", time.Since(start), err) }()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	u, err := sparql.ParseUpdate(text)
	if err != nil {
		return nil, badInput(err)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.state.Load()
	d0 := cur.store.NewDelta()
	d, err := exec.ApplyUpdateDelta(d0, u)
	if err != nil {
		return nil, badInput(err)
	}
	s.updates.Add(1)
	res = &UpdateResult{
		Generation: cur.gen,
		Triples:    cur.store.Len(),
		Inserted:   u.InsertCount(),
		Deleted:    u.DeleteCount(),
	}
	if d == d0 {
		// The update changed nothing (set semantics): keep the current
		// snapshot — and with it the plan cache — instead of publishing an
		// identical generation.
		res.PendingInserts, res.PendingDeletes = pending(cur.store)
		return res, nil
	}
	next := d.Overlay()
	t := s.compactThresholdFor(d.Base().Len())
	if res.Compacted = t > 0 && d.Size() >= t; res.Compacted {
		next = d.Commit()
		s.compactions.Add(1)
	}
	res.Generation = s.swapLocked(next, updateSource(cur.source))
	res.Triples = next.Len()
	res.PendingInserts, res.PendingDeletes = pending(next)
	return res, nil
}

// pending returns the sizes of st's overlay delta, zero for a plain
// store.
func pending(st *store.Store) (inserts, deletes int) {
	if d := st.Delta(); d != nil {
		return d.InsertCount(), d.DeleteCount()
	}
	return 0, 0
}

// compactThresholdFor resolves the auto-compaction threshold against a
// base store size (0 configures the adaptive default, negative disables).
func (s *Service) compactThresholdFor(baseLen int) int {
	t := s.opts.CompactThreshold
	switch {
	case t < 0:
		return 0
	case t == 0:
		t = baseLen / 8
		if t < 1024 {
			t = 1024
		}
	}
	return t
}

// Compact folds the current snapshot's pending delta (if any) into a
// fresh fully indexed store and publishes it. It returns the resulting generation (unchanged when
// there was nothing to fold).
func (s *Service) Compact() uint64 {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.state.Load()
	d := cur.store.Delta()
	if d == nil {
		return cur.gen
	}
	s.compactions.Add(1)
	return s.swapLocked(d.Commit(), updateSource(cur.source))
}

// updateSource labels a snapshot produced by updates after its origin.
func updateSource(source string) string {
	const suffix = "+updates"
	if source == "" || strings.HasSuffix(source, suffix) {
		if source == "" {
			return suffix[1:]
		}
		return source
	}
	return source + suffix
}

// Prepare parses text as a query template and registers it under name.
// Re-preparing a name replaces the previous template.
func (s *Service) Prepare(name, text string) (*Prepared, error) {
	if name == "" {
		return nil, badInput(fmt.Errorf("service: empty template name"))
	}
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, badInput(err)
	}
	p := newPrepared(name, q.String(), q)
	s.prepMu.Lock()
	s.prepared[name] = p
	s.prepMu.Unlock()
	return p, nil
}

// Lookup returns the prepared template registered under name.
func (s *Service) Lookup(name string) (*Prepared, bool) {
	s.prepMu.RLock()
	defer s.prepMu.RUnlock()
	p, ok := s.prepared[name]
	return p, ok
}

// PreparedNames returns the names of all registered templates.
func (s *Service) PreparedNames() []string {
	s.prepMu.RLock()
	defer s.prepMu.RUnlock()
	out := make([]string, 0, len(s.prepared))
	for n := range s.prepared {
		out = append(out, n)
	}
	return out
}

// Outcome is the service-level result of one execution: the exec result
// plus the plan that produced it and cache/snapshot provenance.
type Outcome struct {
	Result     *exec.Result
	Plan       *plan.Plan
	CacheHit   bool
	Generation uint64
	// Store is the snapshot the query executed against — decode row IDs
	// with its dictionary, not the service's current one (a swap may have
	// happened since).
	Store *store.Store
	// Analyze is the rendered EXPLAIN ANALYZE listing and Trace the
	// finalized span tree, both set only when the execution was requested
	// with RunOptions.Analyze.
	Analyze string
	Trace   *obs.Span

	closed atomic.Bool
	unpin  func()
}

// Close releases the snapshot pin the outcome holds. Call it once the
// result has been consumed (rows decoded, payload rendered): over an
// mmap-backed snapshot the result rows and dictionary point into the
// mapping, and the pin is what keeps a since-reloaded snapshot mapped.
// Close is idempotent and safe on a nil outcome; never closing merely
// delays the old mapping's unmap until process exit.
func (o *Outcome) Close() {
	if o == nil || o.unpin == nil {
		return
	}
	if o.closed.CompareAndSwap(false, true) {
		o.unpin()
	}
}

// RunOptions are per-request execution options beyond the binding.
type RunOptions struct {
	// Analyze traces the execution and returns the EXPLAIN ANALYZE
	// rendering (and span tree) in the Outcome.
	Analyze bool
}

// runMeta carries request provenance into run for trace attribution.
type runMeta struct {
	endpoint  string
	template  string
	admitWait time.Duration
	analyze   bool
}

// DecodedRows renders the result rows as N-Triples term strings using the
// executing snapshot's dictionary, through the appender the HTTP result
// writer uses; unbound cells render as "UNDEF".
func (o *Outcome) DecodedRows() [][]string {
	d := o.Store.Dict()
	var buf []byte
	out := make([][]string, len(o.Result.Rows))
	for i, row := range o.Result.Rows {
		cells := make([]string, len(row))
		for j, id := range row {
			var ok bool
			if buf, ok = d.AppendTerm(buf[:0], id, rdf.NTriples); !ok {
				buf = append(buf, "UNDEF"...)
			}
			cells[j] = string(buf)
		}
		out[i] = cells
	}
	return out
}

// Execute runs the prepared template with one binding, through admission
// control and the plan cache.
func (s *Service) Execute(ctx context.Context, p *Prepared, b sparql.Binding) (*Outcome, error) {
	return s.ExecuteWith(ctx, p, b, RunOptions{})
}

// ExecuteWith is Execute with per-request options (EXPLAIN ANALYZE).
func (s *Service) ExecuteWith(ctx context.Context, p *Prepared, b sparql.Binding, ro RunOptions) (out *Outcome, err error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.observe("execute", d, err)
		s.observe(p.latencyKey, d, err)
	}()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	m := runMeta{endpoint: "execute", template: p.Name, admitWait: time.Since(start), analyze: ro.Analyze}
	st := s.pinState()
	out, err = s.run(ctx, st, p.tmpl, p.Text, b, m)
	if err != nil {
		st.unpin()
		return nil, err
	}
	out.unpin = st.unpin
	return out, nil
}

// ExecuteBatch runs the prepared template once per binding, under a single
// admission (one worker slot executes the whole batch) and a single
// snapshot state, so every result of a batch comes from the same store
// generation.
func (s *Service) ExecuteBatch(ctx context.Context, p *Prepared, bindings []sparql.Binding) (out []*Outcome, err error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.observe("execute", d, err)
		s.observe(p.latencyKey, d, err)
	}()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	m := runMeta{endpoint: "execute", template: p.Name, admitWait: time.Since(start)}
	st := s.pinState()
	defer st.unpin()
	out = make([]*Outcome, 0, len(bindings))
	for i, b := range bindings {
		o, err := s.run(ctx, st, p.tmpl, p.Text, b, m)
		if err != nil {
			for _, done := range out {
				done.Close()
			}
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		// Each outcome pins independently (under the batch pin held above),
		// so callers can Close results one by one.
		st.pin()
		o.unpin = st.unpin
		out = append(out, o)
	}
	return out, nil
}

// Query is the one-shot path: parse text, bind b (may be nil for fully
// bound queries) and execute. Identical query texts share plan-cache
// entries with each other and with prepared templates, since the cache key
// uses the canonical rendering.
func (s *Service) Query(ctx context.Context, text string, b sparql.Binding) (*Outcome, error) {
	return s.QueryWith(ctx, text, b, RunOptions{})
}

// QueryWith is Query with per-request options (EXPLAIN ANALYZE).
func (s *Service) QueryWith(ctx context.Context, text string, b sparql.Binding, ro RunOptions) (out *Outcome, err error) {
	start := time.Now()
	defer func() { s.observe("query", time.Since(start), err) }()
	// Admission comes first — under overload even parsing is work the
	// fast-reject path must not pay.
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	m := runMeta{endpoint: "query", admitWait: time.Since(start), analyze: ro.Analyze}
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, badInput(err)
	}
	st := s.pinState()
	out, err = s.run(ctx, st, q, q.String(), b, m)
	if err != nil {
		st.unpin()
		return nil, err
	}
	out.unpin = st.unpin
	return out, nil
}

// run executes one (template, binding) pair against the pinned snapshot
// state: plan-cache lookup first, full bind/compile/optimize on a miss.
// The run is traced when the request asked for EXPLAIN ANALYZE, when the
// 1-in-N sampler selects it, or when slow-query capture is armed (the
// trace is then discarded if the query comes in under the threshold).
func (s *Service) run(ctx context.Context, st *snapState, tmpl *sparql.Query, text string, b sparql.Binding, m runMeta) (*Outcome, error) {
	key := plan.CacheKey(text, b)
	ent, hit := st.cache.get(key)
	if !hit {
		bound := tmpl
		if len(tmpl.Params()) > 0 || len(b) > 0 {
			var err error
			bound, err = tmpl.Bind(b)
			if err != nil {
				return nil, badInput(err)
			}
		}
		c, err := plan.Compile(bound, st.store)
		if err != nil {
			return nil, badInput(err)
		}
		p, err := plan.Optimize(c, plan.NewEstimator(st.store))
		if err != nil {
			return nil, err
		}
		ent = &planEntry{key: key, c: c, p: p}
		st.cache.put(ent)
	}
	execOpts := s.opts.Exec
	var capture *obs.Capture
	sampled := false
	if n := s.opts.TraceSample; n > 0 && s.traceSeq.Add(1)%uint64(n) == 0 {
		sampled = true
	}
	if m.analyze || sampled || s.opts.SlowQueryMs > 0 {
		capture = &obs.Capture{}
		execOpts.Trace = capture
	}
	res, err := exec.RunCtx(ctx, ent.c, ent.p, st.store, execOpts)
	if err != nil {
		return nil, err
	}
	s.kern.add(res.Kernels)
	out := &Outcome{Result: res, Plan: ent.p, CacheHit: hit, Generation: st.gen, Store: st.store}
	if capture != nil && capture.Root != nil {
		s.recordTrace(m, sampled, text, ent.p.Signature, hit, st.gen, res, capture.Root, out)
	}
	return out, nil
}

// recordTrace decides a captured trace's fate: EXPLAIN ANALYZE requests
// get the rendering in their Outcome, sampled and slow traces are retained
// in the recent-trace ring, and slow traces additionally emit one
// structured log line. A trace captured only because slow-query capture is
// armed is dropped when the query comes in under the threshold.
func (s *Service) recordTrace(m runMeta, sampled bool, text, sig string, hit bool, gen uint64, res *exec.Result, root *obs.Span, out *Outcome) {
	s.traced.Add(1)
	if m.analyze {
		out.Analyze = obs.Render(root)
		out.Trace = root
	}
	slow := s.opts.SlowQueryMs > 0 && res.Duration >= time.Duration(s.opts.SlowQueryMs)*time.Millisecond
	if !m.analyze && !sampled && !slow {
		return
	}
	t := &obs.QueryTrace{
		Time:            time.Now(),
		Endpoint:        m.endpoint,
		Query:           text,
		Template:        m.template,
		PlanSignature:   sig,
		CacheHit:        hit,
		Generation:      gen,
		AdmissionWaitUs: m.admitWait.Microseconds(),
		DurationUs:      res.Duration.Microseconds(),
		Rows:            len(res.Rows),
		Cout:            res.Cout,
		Work:            res.Work,
		Scanned:         res.Scanned,
		Slow:            slow,
		Sampled:         sampled,
		Root:            root,
	}
	s.ring.Add(t)
	if !slow {
		return
	}
	s.slow.Add(1)
	if w := s.opts.SlowLog; w != nil {
		line, err := json.Marshal(slowLogLine{
			Time:            t.Time.Format(time.RFC3339Nano),
			Level:           "warn",
			Msg:             "slow query",
			TraceID:         t.ID,
			Endpoint:        m.endpoint,
			Template:        m.template,
			Query:           text,
			DurationMs:      float64(res.Duration) / float64(time.Millisecond),
			ThresholdMs:     s.opts.SlowQueryMs,
			AdmissionWaitUs: t.AdmissionWaitUs,
			Rows:            len(res.Rows),
			Cout:            res.Cout,
			Work:            res.Work,
			Scanned:         res.Scanned,
			PlanSignature:   sig,
			CacheHit:        hit,
			Generation:      gen,
		})
		if err == nil {
			s.slowMu.Lock()
			_, _ = w.Write(append(line, '\n'))
			s.slowMu.Unlock()
		}
	}
}

// slowLogLine is one structured slow-query log record: a summary without
// the span tree — the full trace stays in the ring under TraceID.
type slowLogLine struct {
	Time            string  `json:"time"`
	Level           string  `json:"level"`
	Msg             string  `json:"msg"`
	TraceID         uint64  `json:"trace_id"`
	Endpoint        string  `json:"endpoint"`
	Template        string  `json:"template,omitempty"`
	Query           string  `json:"query"`
	DurationMs      float64 `json:"duration_ms"`
	ThresholdMs     int     `json:"threshold_ms"`
	AdmissionWaitUs int64   `json:"admission_wait_us"`
	Rows            int     `json:"rows"`
	Cout            float64 `json:"cout"`
	Work            float64 `json:"work"`
	Scanned         int     `json:"scanned"`
	PlanSignature   string  `json:"plan_signature"`
	CacheHit        bool    `json:"cache_hit"`
	Generation      uint64  `json:"generation"`
}

// TraceRecent returns up to n retained traces, newest first (n < 1 means
// all retained).
func (s *Service) TraceRecent(n int) []*obs.QueryTrace { return s.ring.Recent(n) }

// admit acquires one token from the admission pool, waiting in the
// bounded queue when the pool is exhausted. It fails fast with
// ErrOverloaded when the queue is full, and with ctx's error if the caller
// gives up while queued. The returned release function must be called when
// the request finishes.
func (s *Service) admit(ctx context.Context) (func(), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.pool.tryAcquire() {
		if s.queued.Add(1) > int64(s.opts.QueueDepth) {
			s.queued.Add(-1)
			s.rejected.Add(1)
			return nil, ErrOverloaded
		}
		err := s.pool.acquire(ctx)
		s.queued.Add(-1)
		if err != nil {
			return nil, err
		}
	}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		s.pool.release()
	}, nil
}

// EngineError is ParseEngineMode's error for any engine name other than
// "columnar": the streaming and materializing engines were removed.
type EngineError struct{ Name string }

func (e *EngineError) Error() string {
	return fmt.Sprintf("engine %q does not exist: columnar is the only engine (streaming and materializing were removed)", e.Name)
}

// ParseEngineMode maps an engine name to exec.Columnar, the only engine:
// "" and "columnar" are accepted, anything else is an *EngineError. It
// exists for the frozen benchmark harness (see exec.ExecMode) and goes with
// that shim.
func ParseEngineMode(name string) (exec.ExecMode, error) {
	if name != "" && name != "columnar" {
		return exec.Columnar, &EngineError{Name: name}
	}
	return exec.Columnar, nil
}

// maxLatencyKeys caps the latency map's cardinality. Per-template keys
// derive from client-chosen /prepare names, so without a cap an
// adversarial (or merely enthusiastic) client could grow the map — and
// every /stats and /metrics payload — without bound. Observations past
// the cap fold into the "other" key, so the map holds at most
// maxLatencyKeys distinct keys plus "other".
const maxLatencyKeys = 64

// latencyOverflowKey aggregates observations whose key did not fit.
const latencyOverflowKey = "other"

// observe records one finished request — failed ones included, so an error
// storm is visible in /stats rather than indistinguishable from idleness.
func (s *Service) observe(endpoint string, d time.Duration, err error) {
	ms := float64(d) / float64(time.Millisecond)
	s.statMu.Lock()
	defer s.statMu.Unlock()
	h, ok := s.latency[endpoint]
	if !ok {
		if len(s.latency) >= maxLatencyKeys && endpoint != latencyOverflowKey {
			endpoint = latencyOverflowKey
			h = s.latency[endpoint]
		}
		if h == nil {
			// 1µs .. 10s in geometric steps — query latencies span orders of
			// magnitude (cache hit on an empty result vs a cold heavy join).
			h = stats.NewLogHistogram(0.001, 10_000, 21)
			s.latency[endpoint] = h
		}
	}
	h.Add(ms)
	s.counts[endpoint]++
	if err != nil {
		s.errCounts[endpoint]++
	}
}

// CacheStats are the shared plan cache's size and lifetime counters.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// PoolStats describe admission control: Workers tokens, one per executing
// request, and the bounded queue in front of them.
type PoolStats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	InFlight   int64  `json:"in_flight"`
	Queued     int64  `json:"queued"`
	Rejected   uint64 `json:"rejected"`
	// TokensInUse is the number of pool tokens currently held, one per
	// admitted request.
	TokensInUse int `json:"tokens_in_use"`
	// TokenWaits counts admissions that had to wait for a token;
	// TokenWaitMs is the total time they spent waiting.
	TokenWaits  uint64  `json:"token_waits"`
	TokenWaitMs float64 `json:"token_wait_ms"`
}

// KernelStats are the cumulative kernel counters aggregated from every
// query since startup. LeftJoinRows, UnionRows and AggGroups are logical
// algebra-operator counts; the rest describe how the engine's kernels ran.
type KernelStats struct {
	Batches       uint64 `json:"batches"`
	FilterRows    uint64 `json:"filter_rows"`
	HashProbeRows uint64 `json:"hash_probe_rows"`
	GatherRows    uint64 `json:"gather_rows"`
	LeftJoinRows  uint64 `json:"left_join_rows"`
	UnionRows     uint64 `json:"union_rows"`
	AggGroups     uint64 `json:"agg_groups"`
}

// EngineStats name the configured execution engine and its kernel
// telemetry.
type EngineStats struct {
	// Mode is always "columnar", the only engine.
	Mode string `json:"mode"`
	// Leapfrog is always false. It survives as a shim, like
	// exec.Options.Leapfrog, because the frozen benchmark harness
	// (bench/main.go) reads it; the benchmark-only follow-up that may edit
	// bench/ deletes both (ROADMAP item 6(f)).
	Leapfrog bool        `json:"leapfrog"`
	Kernels  KernelStats `json:"kernels"`
}

// StoreStats describe the current snapshot. A snapshot with pending
// changes is an overlay: BaseTriples is its fully indexed base's size and
// PendingInserts/PendingDeletes the delta merged in on every read.
type StoreStats struct {
	Triples        int    `json:"triples"`
	Generation     uint64 `json:"generation"`
	Source         string `json:"source,omitempty"`
	BaseTriples    int    `json:"base_triples"`
	PendingInserts int    `json:"pending_inserts"`
	PendingDeletes int    `json:"pending_deletes"`
	// Backend is the snapshot's index backing: "heap" for deserialized
	// stores, "mapped" for stores served from an mmap'd v4 snapshot.
	Backend string `json:"backend"`
	// MappedBytes is the size of the snapshot file mapping backing the
	// current store (0 for heap).
	MappedBytes int `json:"mapped_bytes"`
	// MappingsAwaitingUnmap counts retired mmap-backed generations still
	// held open by in-flight queries (each unmaps when its last query
	// drains).
	MappingsAwaitingUnmap int64 `json:"mappings_awaiting_unmap"`
	// RenderTableBytes is the memory of the dictionary's table of terms
	// pre-rendered as JSON (0 until the first JSON result is written).
	RenderTableBytes int `json:"render_table_bytes"`
}

// UpdateStats describe the update path since startup.
type UpdateStats struct {
	// Updates counts applied update requests; Compactions counts the
	// snapshots that folded the pending delta into a fresh store
	// (threshold-triggered or explicit Compact).
	Updates     uint64 `json:"updates"`
	Compactions uint64 `json:"compactions"`
	// CompactThreshold is the delta size (inserts + deletes) at which the
	// next update will compact, resolved against the current base.
	CompactThreshold int `json:"compact_threshold"`
}

// HistogramStats is a serialized stats.Histogram: bucket i of Counts covers
// [Bounds[i-1], Bounds[i]), with open-ended first and last buckets.
type HistogramStats struct {
	BoundsMs []float64 `json:"bounds_ms"`
	Counts   []int     `json:"counts"`
	Total    int       `json:"total"`
	SumMs    float64   `json:"sum_ms"`
}

// TraceStats describe the tracing subsystem: its configuration plus how
// many queries ran traced, how many crossed the slow threshold, and how
// many traces were retained in the ring (lifetime, not just currently
// held).
type TraceStats struct {
	Sample      int    `json:"sample"`
	SlowQueryMs int    `json:"slow_query_ms"`
	RingSize    int    `json:"ring_size"`
	Traced      uint64 `json:"traced"`
	Slow        uint64 `json:"slow"`
	Retained    uint64 `json:"retained"`
}

// RequestStats are the per-endpoint request count (failures included),
// error count and latency histogram.
type RequestStats struct {
	Count     uint64         `json:"count"`
	Errors    uint64         `json:"errors"`
	LatencyMs HistogramStats `json:"latency_ms"`
}

// Stats is the full service statistics snapshot returned by /stats.
type Stats struct {
	Store    StoreStats              `json:"store"`
	Updates  UpdateStats             `json:"updates"`
	Cache    CacheStats              `json:"cache"`
	Pool     PoolStats               `json:"pool"`
	Engine   EngineStats             `json:"engine"`
	Trace    TraceStats              `json:"trace"`
	Prepared []string                `json:"prepared"`
	Requests map[string]RequestStats `json:"requests"`
}

// Stats returns a consistent-enough snapshot of the service counters.
func (s *Service) Stats() Stats {
	st := s.state.Load()
	storeStats := StoreStats{
		Triples:               st.store.Len(),
		Generation:            st.gen,
		Source:                st.source,
		BaseTriples:           st.store.Len(),
		Backend:               st.store.Backend(),
		MappedBytes:           st.store.MappedBytes(),
		MappingsAwaitingUnmap: s.retiredMapped.Load(),
		RenderTableBytes:      st.store.Dict().RenderTableBytes(),
	}
	if d := st.store.Delta(); d != nil {
		storeStats.BaseTriples = d.Base().Len()
	}
	storeStats.PendingInserts, storeStats.PendingDeletes = pending(st.store)
	out := Stats{
		Store: storeStats,
		Updates: UpdateStats{
			Updates:          s.updates.Load(),
			Compactions:      s.compactions.Load(),
			CompactThreshold: s.compactThresholdFor(storeStats.BaseTriples),
		},
		Cache: CacheStats{
			Size:      st.cache.size(),
			Capacity:  s.opts.PlanCacheSize,
			Hits:      s.cacheCtr.hits.Load(),
			Misses:    s.cacheCtr.misses.Load(),
			Evictions: s.cacheCtr.evictions.Load(),
		},
		Pool: PoolStats{
			Workers:     s.opts.Workers,
			QueueDepth:  s.opts.QueueDepth,
			InFlight:    s.inflight.Load(),
			Queued:      s.queued.Load(),
			Rejected:    s.rejected.Load(),
			TokensInUse: s.pool.inUse(),
		},
		Engine: EngineStats{
			Mode: "columnar",
			Kernels: KernelStats{
				Batches:       s.kern.batches.Load(),
				FilterRows:    s.kern.filterRows.Load(),
				HashProbeRows: s.kern.hashProbeRows.Load(),
				GatherRows:    s.kern.gatherRows.Load(),
				LeftJoinRows:  s.kern.leftJoinRows.Load(),
				UnionRows:     s.kern.unionRows.Load(),
				AggGroups:     s.kern.aggGroups.Load(),
			},
		},
		Trace: TraceStats{
			Sample:      s.opts.TraceSample,
			SlowQueryMs: s.opts.SlowQueryMs,
			RingSize:    s.opts.TraceRecent,
			Traced:      s.traced.Load(),
			Slow:        s.slow.Load(),
			Retained:    s.ring.Total(),
		},
		Prepared: s.PreparedNames(),
		Requests: make(map[string]RequestStats),
	}
	waits, waited := s.pool.waitStats()
	out.Pool.TokenWaits = waits
	out.Pool.TokenWaitMs = float64(waited) / float64(time.Millisecond)
	s.statMu.Lock()
	defer s.statMu.Unlock()
	for name, h := range s.latency {
		out.Requests[name] = RequestStats{
			Count:  s.counts[name],
			Errors: s.errCounts[name],
			LatencyMs: HistogramStats{
				BoundsMs: append([]float64(nil), h.Bounds...),
				Counts:   append([]int(nil), h.Counts...),
				Total:    h.Total(),
				SumMs:    h.Sum(),
			},
		}
	}
	return out
}
