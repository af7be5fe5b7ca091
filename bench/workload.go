package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/sparql"
)

// A scale sizes the fixture and the request streams. "default" is what
// BENCHMARK.json measures; "test" exists so `go test ./bench` can run all
// four workloads end to end in seconds.
type scale struct {
	name string
	data bsbm.Config
	// setups is how often the whole set-up is repeated; setup_s is the
	// median, so one slow snapshot write does not move it.
	setups int
	// perClass bindings are drawn from every curated class.
	perClass int
	// coldRequests is the number of distinct uniform-cold requests: four
	// times served's 1024-entry plan cache, so a cyclic replay never
	// finds an entry that LRU has not already evicted.
	coldRequests int
	// An update inserts a batch of updateOffers new offers (three triples
	// each) or deletes the batch inserted deleteLag inserts earlier.
	// deleteLag × batch exceeds served's adaptive compaction threshold
	// (an eighth of the base), so deletes land on compacted triples, the
	// pending delta keeps growing and auto-compaction keeps triggering;
	// a shorter lag would cancel inside the overlay and never compact.
	updateOffers, deleteLag int
	// minReadSamples is the fewest read samples p99 is reported on.
	minReadSamples int
	// tracedRequests bounds the in-process traced replay.
	tracedRequests int
}

// fixtureSeed seeds the dataset and the curation sample. It is a constant,
// not --seed: class boundaries sit on geometric cost bands, so a different
// dataset can split a template into one class more or fewer, and the work
// per request of an equal-per-class stream would then differ by tens of
// percent between seeds. --seed draws the bindings and their order.
const fixtureSeed = 1

func scaleByName(name string) (scale, error) {
	switch name {
	case "default":
		cfg := bsbm.DefaultConfig()
		cfg.Products = 10000
		cfg.Seed = fixtureSeed
		return scale{name: name, data: cfg, setups: 3, perClass: 32, coldRequests: 4096,
			updateOffers: 150, deleteLag: 128, minReadSamples: 1000, tracedRequests: 2000}, nil
	case "test":
		cfg := bsbm.TestConfig()
		cfg.Seed = fixtureSeed
		return scale{name: name, data: cfg, setups: 1, perClass: 8, coldRequests: 4096,
			updateOffers: 50, deleteLag: 64, minReadSamples: 100, tracedRequests: 300}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (want default or test)", name)
}

// templates are the BSBM query templates the workloads prepare, by the
// name they are prepared under.
var templates = map[string]string{
	"Q1": bsbm.QueryQ1Text,
	"Q2": bsbm.QueryQ2Text,
	"Q3": bsbm.QueryQ3Text,
	"Q4": bsbm.QueryQ4Text,
	"Q5": bsbm.QueryQ5Text,
	"Q6": bsbm.QueryQ6Text,
}

// A workload is one traffic mix. The names are cited by later issues and
// must not change.
type workload struct {
	name, why string
	sharded   bool // the fixture is a 4-shard snapshot directory
	updates   bool // served runs with -allow-update and every updateEvery-th op is an /update
	// prepared lists the templates registered with /prepare.
	prepared []string
	// queries builds the distinct (template, binding) pairs of the stream.
	queries func(fx *fixture, seed int64) ([]query, error)
	// warmAll plays every distinct query once before timing, so the timed
	// requests find their plans cached; otherwise warm-up is a short
	// prefix and the timed run starts behind it.
	warmAll bool
	// hitLo and hitHi bound service.cache_hit_ratio; the run is incorrect
	// outside them, because the workload then no longer stresses the
	// layers it was chosen for.
	hitLo, hitHi float64
}

const (
	updateEvery = 10 // every 10th op of an update workload is an /update
	shards      = 4
	coldWarm    = 256 // warm-up requests of a workload that must stay cold
)

var workloads = []*workload{
	{
		name:     "bsbm.curated-hit",
		why:      "prepared Q1/Q2/Q4, curated bindings that fit the plan cache: exec, store scans, dict decode and JSON encode do the work, sparql and plan none",
		prepared: []string{"Q1", "Q2", "Q4"},
		queries: func(fx *fixture, seed int64) ([]query, error) {
			return fx.curatedQueries(seed, 20, "Q1", "Q2", "Q4")
		},
		warmAll: true, hitLo: 0.99, hitHi: 1,
	},
	{
		name:    "bsbm.uniform-cold",
		why:     "un-prepared Q3 text with uniformly drawn, distinct bindings: parse, bind, compile, DPsub and LRU churn dominate; the bypass case for every exec or store change",
		queries: (*fixture).uniformQueries,
		hitLo:   0, hitHi: 0.05,
	},
	{
		name:     "bsbm.sharded4-scan",
		why:      "prepared Q4/Q5/Q6 over a 4-shard mmap directory with generic product types: the k-way shard merge, join kernels, decode and encode of large results dominate",
		sharded:  true,
		prepared: []string{"Q4", "Q5", "Q6"},
		queries: func(fx *fixture, seed int64) ([]query, error) {
			return fx.typeQueries(seed, 20, share{"Q4", 1}, share{"Q6", 16}, share{"Q5", 32})
		},
		warmAll: true, hitLo: 0.99, hitHi: 1,
	},
	{
		name:     "bsbm.update-mix",
		why:      "curated-hit reads with every 10th op an INSERT/DELETE DATA batch: overlay scans, a fresh plan cache per generation and compaction stalls in the tails",
		updates:  true,
		prepared: []string{"Q1", "Q2", "Q4"},
		queries: func(fx *fixture, seed int64) ([]query, error) {
			return fx.curatedQueries(seed, 20, "Q1", "Q2", "Q4")
		},
		warmAll: true, hitLo: 0, hitHi: 1,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// A query is one distinct (template, binding) pair of a stream.
type query struct {
	tmpl    string
	binding sparql.Binding
	class   string // curated class label ("Q4c"), or the template name for uniform draws
	op      op
}

// An op is one HTTP request of a stream.
type op struct {
	path   string // /execute, /query or /update
	body   []byte
	query  int    // index into stream.queries, -1 for an update
	update string // the SPARQL-Update text of an update
}

func newQuery(tmpl, class string, b sparql.Binding, prepared bool) query {
	bind := make(map[string]string, len(b))
	for p, t := range b {
		bind[string(p)] = t.String()
	}
	q := query{tmpl: tmpl, class: class, binding: b}
	var req any
	if prepared {
		q.op.path = "/execute"
		req = struct {
			Name     string            `json:"name"`
			Bindings map[string]string `json:"bindings"`
		}{tmpl, bind}
	} else {
		q.op.path = "/query"
		req = struct {
			Query    string            `json:"query"`
			Bindings map[string]string `json:"bindings"`
		}{templates[tmpl], bind}
	}
	body, err := json.Marshal(req) // map keys are emitted sorted: deterministic
	if err != nil {
		panic(err) // strings and maps of strings always marshal
	}
	q.op.body = body
	return q
}

// drawClass picks n bindings from a curated class by systematic sampling:
// the class sorted by estimated cost, read at n evenly spaced positions
// shifted by a seed-chosen phase (repeating points when the class has
// fewer than n). Every draw spans the whole cost band of the class, so
// two seeds differ in which neighbours they picked, not in whether the
// expensive end was sampled at all. core.ClassSampler's independent draws
// with replacement left that to chance: across ten seeds the work behind
// a 32-binding draw of a 28-point class, and with it latency_p99_ms of
// the whole workload, spread by 24 %.
func drawClass(c *core.Class, n int, rng *rand.Rand) []sparql.Binding {
	pts := append([]core.Point(nil), c.Points...)
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Cost < pts[j].Cost })
	phase := rng.Float64()
	out := make([]sparql.Binding, n)
	for j := range out {
		out[j] = pts[int((float64(j)+phase)*float64(len(pts))/float64(n))].Binding
	}
	return out
}

// A share gives a template one binding for every `every` bindings drawn
// from a class.
type share struct {
	tmpl  string
	every int
}

// classQueries draws scale.perClass bindings from every curated class of
// classTmpl — the paper's stratified stream, the one a benchmark should
// run instead of uniform draws — and hands each template of the mix its
// share of them.
func (fx *fixture) classQueries(rng *rand.Rand, classTmpl string, minClass int, mix ...share) ([]query, error) {
	cl, err := fx.curate(classTmpl, minClass)
	if err != nil {
		return nil, err
	}
	var out []query
	for i := range cl.Classes {
		bindings := drawClass(&cl.Classes[i], fx.sc.perClass, rng)
		for _, m := range mix {
			n := max(1, len(bindings)/m.every)
			for j := 0; j < n; j++ {
				b := bindings[j*len(bindings)/n] // spread over the class, like the draw itself
				out = append(out, newQuery(m.tmpl, core.Label(m.tmpl, i), b, true))
			}
		}
	}
	return out, nil
}

// curatedQueries runs each template on bindings from its own classes.
func (fx *fixture) curatedQueries(seed int64, minClass int, tmpls ...string) ([]query, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []query
	for _, tmpl := range tmpls {
		qs, err := fx.classQueries(rng, tmpl, minClass, share{tmpl, 1})
		if err != nil {
			return nil, err
		}
		out = append(out, qs...)
	}
	return out, nil
}

// typeQueries runs templates that share Q4's single %ProductType
// parameter on bindings from Q4's classes. The optimizer prices Q5's
// OPTIONAL and Q6's UNION side at a constant, so their own analysis puts
// every product type in one class, root and leaves alike; Q4's classes
// partition the same domain by the data volume behind a type. Q5 and Q6
// read whole predicates whatever the type and cost tens of Q4s each, so
// they get a small share of the bindings: enough to run their kernels and
// to own the tail, not so much that a run has too few samples for a p99.
func (fx *fixture) typeQueries(seed int64, minClass int, mix ...share) ([]query, error) {
	return fx.classQueries(rand.New(rand.NewSource(seed)), "Q4", minClass, mix...)
}

// uniformQueries draws distinct Q3 bindings uniformly from the cross
// product of the three parameter domains — the sampling the paper warns
// against for stable numbers, used here on purpose because it defeats the
// plan cache; the fixed seed keeps the sequence itself reproducible.
func (fx *fixture) uniformQueries(seed int64) ([]query, error) {
	dom, err := fx.domain("Q3")
	if err != nil {
		return nil, err
	}
	n := fx.sc.coldRequests + coldWarm
	if dom.Size() < 2*n {
		return nil, fmt.Errorf("Q3 domain has %d bindings, too few for %d distinct requests", dom.Size(), n)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, n)
	out := make([]query, 0, n)
	for len(out) < n {
		i := rng.Intn(dom.Size())
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, newQuery("Q3", "Q3", dom.At(i), false))
	}
	return out, nil
}

// A stream is the fixed request sequence of one workload run.
type stream struct {
	queries []query
	warm    []int   // queries played once, untimed, before the run
	clients [][]int // per client: the read sequence, replayed cyclically
	sha256  string
}

// buildStream lays the workload's queries out as per-client sequences.
// Everything is a function of (fixture, seed, clients).
func buildStream(w *workload, fx *fixture, seed int64, clients int) (*stream, error) {
	qs, err := w.queries(fx, seed)
	if err != nil {
		return nil, err
	}
	for i := range qs {
		qs[i].op.query = i
	}
	st := &stream{queries: qs, clients: make([][]int, clients)}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	if w.warmAll {
		// Every query is warmed, and every client plays every query, each
		// in its own order, so a cycle holds the same work whichever
		// client runs ahead.
		for i := range qs {
			st.warm = append(st.warm, i)
		}
		for c := range st.clients {
			st.clients[c] = rng.Perm(len(qs))
		}
	} else {
		// The last coldWarm queries warm the server up; the rest are
		// dealt out, so no client repeats another's.
		timed := len(qs) - coldWarm
		for i := timed; i < len(qs); i++ {
			st.warm = append(st.warm, i)
		}
		for i, q := range rng.Perm(timed) {
			st.clients[i%clients] = append(st.clients[i%clients], q)
		}
	}
	h := sha256.New()
	for c, seq := range st.clients {
		fmt.Fprintf(h, "client %d\n", c)
		for _, q := range seq {
			fmt.Fprintf(h, "%s %s\n", qs[q].op.path, qs[q].op.body)
		}
		if w.updates {
			for k := 0; k < 2*fx.sc.deleteLag; k++ {
				fmt.Fprintf(h, "%s\n", updateOp(fx.sc, seed, c, k).body)
			}
		}
	}
	st.sha256 = hex.EncodeToString(h.Sum(nil))
	return st, nil
}

// classes returns the distinct class labels of the stream, sorted.
func (st *stream) classes() []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range st.queries {
		if !seen[q.class] {
			seen[q.class] = true
			out = append(out, q.class)
		}
	}
	sort.Strings(out)
	return out
}

// updateKind says what client update number k does: the first deleteLag
// updates insert batches 0..deleteLag-1; from then on updates alternate
// between deleting the oldest live batch and inserting a new one, so the
// live size stays level.
func updateKind(sc scale, k int) (insert bool, batch int) {
	switch {
	case k < sc.deleteLag:
		return true, k
	case (k-sc.deleteLag)%2 == 0:
		return false, (k - sc.deleteLag) / 2
	default:
		return true, (k + sc.deleteLag - 1) / 2
	}
}

// updateOp is client c's k-th update. The batch content is a function of
// (seed, client, batch) alone, so a delete names exactly the triples the
// matching insert added. New offers point at new, untyped products: no
// read template can reach them, so every read keeps its reference answer
// whatever the interleaving with writes.
func updateOp(sc scale, seed int64, c, k int) op {
	insert, batch := updateKind(sc, k)
	var b strings.Builder
	b.WriteString("PREFIX bsbm: <" + bsbm.NS + ">\n")
	if insert {
		b.WriteString("INSERT DATA {\n")
	} else {
		b.WriteString("DELETE DATA {\n")
	}
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(c)<<16 ^ int64(batch)))
	for j := 0; j < sc.updateOffers; j++ {
		offer := benchOffer(seed, c, batch, j)
		fmt.Fprintf(&b, "  <%s> bsbm:product <%sBenchProduct%d_%d_%d> .\n", offer, bsbm.NS, seed, c, batch)
		fmt.Fprintf(&b, "  <%s> bsbm:price %d .\n", offer, 10+rng.Intn(9000))
		fmt.Fprintf(&b, "  <%s> bsbm:vendor <%sVendor%d> .\n", offer, bsbm.NS, rng.Intn(sc.data.Vendors))
	}
	b.WriteString("}")
	body, err := json.Marshal(struct {
		Update string `json:"update"`
	}{b.String()})
	if err != nil {
		panic(err)
	}
	return op{path: "/update", body: body, query: -1, update: b.String()}
}

func benchOffer(seed int64, c, batch, j int) string {
	return fmt.Sprintf("%sBenchOffer%d_%d_%d_%d", bsbm.NS, seed, c, batch, j)
}
