package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/core"
	rexec "repro/internal/exec"
	"repro/internal/stats"
)

// A metric is one named number of the result.
type metric struct {
	name, unit string
	value      float64
}

// A report is everything one workload run measured.
type report struct {
	w       *workload
	cfg     config
	fx      *fixture
	st      *stream
	answers []answer
	setups  []float64            // one setup_s sample per set-up
	phases  map[string][]float64 // per set-up phase, one sample per set-up
	res     *runResult
	rssMB   float64
	tr      *traceResult // nil without -trace 1
	spreads workSpread
	scans   scanCost
}

// hitRatio is the share of reads served from the plan cache.
func (r *report) hitRatio() float64 {
	if len(r.res.readMs) == 0 {
		return 0
	}
	return float64(r.res.hits) / float64(len(r.res.readMs))
}

// problems lists why the run is not correct; empty means it is.
func (r *report) problems() []string {
	var out []string
	if r.res.failed > 0 {
		out = append(out, fmt.Sprintf("%d of %d ops failed: %s", r.res.failed, r.res.attempted, strings.Join(r.res.notes, "; ")))
	}
	if h := r.hitRatio(); h < r.w.hitLo || h > r.w.hitHi {
		out = append(out, fmt.Sprintf("service.cache_hit_ratio %.4f outside [%g, %g]: the stream no longer stresses the layers it was chosen for", h, r.w.hitLo, r.w.hitHi))
	}
	if msg := r.checkExpected(); msg != "" {
		out = append(out, msg)
	}
	return out
}

func (r *report) correct() bool { return len(r.problems()) == 0 }

// cycle sums the reference answers over one pass of every client's
// sequence: the deterministic work behind the stream, which repeats
// exactly for a seed.
type cycleSums struct {
	Stream  string  `json:"stream_sha256"`
	Rows    int     `json:"rows"`
	RowHash string  `json:"row_hash"`
	Work    float64 `json:"work"`
	Cout    float64 `json:"cout"`
	Scanned int     `json:"scanned"`
}

func (r *report) cycle() cycleSums {
	c := cycleSums{Stream: r.st.sha256}
	var hash uint64
	for _, seq := range r.st.clients {
		for _, q := range seq {
			a := r.answers[q]
			c.Rows += a.rows
			hash += a.hash
			c.Work += a.work
			c.Cout += a.cout
			c.Scanned += a.scanned
		}
	}
	c.RowHash = fmt.Sprintf("%016x", hash)
	return c
}

//go:embed expected.json
var expectedJSON []byte

// checkExpected compares a seed-1 run with the checked-in sums. The
// reference evaluation shares the engine with the server, so a bug in
// both would pass every per-request check; rows pinned in a file would
// not. A different stream or different accounting is reported, not
// failed: a later change may alter curation or plans on purpose, and says
// so by pointing at this line.
func (r *report) checkExpected() string {
	want, ok := r.expected()
	if !ok {
		return ""
	}
	got := r.cycle()
	if got.Stream != want.Stream {
		return ""
	}
	if got.Rows != want.Rows || got.RowHash != want.RowHash {
		return fmt.Sprintf("rows of the seed-1 stream differ from expected.json: %d rows hash %s, want %d rows hash %s",
			got.Rows, got.RowHash, want.Rows, want.RowHash)
	}
	return ""
}

func (r *report) expected() (cycleSums, bool) {
	if r.cfg.seed != 1 || r.cfg.clients != expectedClients {
		return cycleSums{}, false
	}
	var all map[string]map[string]cycleSums
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("bench/expected.json: " + err.Error()) // a checked-in file
	}
	want, ok := all[r.cfg.sc.name][r.w.name]
	return want, ok
}

// expectedClients is the client count expected.json was recorded with;
// the per-client sequences, and so the sums, depend on it.
const expectedClients = 2

// A workSpread is the paper's claim measured on this service: p90/p10 of
// the work behind a template's bindings, within a curated class and
// across a uniform sample of the same template's domain.
type workSpread struct{ class, uniform float64 }

const spreadSample = 64

// workSpreads computes the pair for Q4, the template every curated
// workload runs; a uniform stream has no classes and reports its own
// queries as the uniform side.
func workSpreads(fx *fixture, st *stream, answers []answer, seed int64, opts rexec.Options) (workSpread, error) {
	byClass := map[string][]float64{}
	var all []float64
	for i, q := range st.queries {
		all = append(all, answers[i].work)
		if q.tmpl == "Q4" {
			byClass[q.class] = append(byClass[q.class], answers[i].work)
		}
	}
	if len(byClass) == 0 {
		return workSpread{uniform: spread(all)}, nil
	}
	var perClass []float64
	for _, xs := range byClass {
		perClass = append(perClass, spread(xs))
	}
	dom, err := core.ExtractDomain(template("Q4"), fx.heap)
	if err != nil {
		return workSpread{}, err
	}
	var uniform []query
	for _, b := range core.NewUniformSampler(dom, seed).Sample(spreadSample) {
		uniform = append(uniform, newQuery("Q4", "Q4", b, true))
	}
	ans, err := evaluateAll(fx.heap, uniform, opts)
	if err != nil {
		return workSpread{}, err
	}
	var work []float64
	for _, a := range ans {
		work = append(work, a.work)
	}
	return workSpread{class: median(perClass), uniform: spread(work)}, nil
}

// endToEnd are the metrics a user of the service sees.
func (r *report) endToEnd() []metric {
	return []metric{
		{"setup_s", "s", median(r.setups)},
		{"throughput_rps", "1/s", float64(r.res.attempted-r.res.failed) / r.res.elapsed},
		{"latency_p50_ms", "ms", stats.Percentile(r.res.readMs, 50)},
		{"latency_p99_ms", "ms", stats.Percentile(r.res.readMs, 99)},
	}
}

// An updateSummary describes the acknowledged updates of a run.
type updateSummary struct {
	applyMs      float64 // median latency of updates that published an overlay
	compactMaxMs float64 // slowest update that also folded the delta
	compactions  int
	p50          float64
	tail, tailP  float64 // the highest percentile with ten samples beyond it, and which it is
}

func (r *report) updates() updateSummary {
	var plain, compact []float64
	for i, ms := range r.res.updateMs {
		if r.res.compacted[i] {
			compact = append(compact, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	u := updateSummary{applyMs: median(plain), compactMaxMs: maxOf(compact), compactions: len(compact), p50: median(r.res.updateMs)}
	if p, ok := pickPercentile(len(r.res.updateMs)); ok {
		u.tail, u.tailP = stats.Percentile(r.res.updateMs, p), p
	}
	return u
}

// perLayer are the metrics of single layers. Metrics of the traced run
// are 0 without -trace 1; the others come from the end-to-end run itself.
func (r *report) perLayer() []metric {
	tr := r.tr
	if tr == nil {
		tr = &traceResult{layerUs: map[string]float64{}}
	}
	var ms []metric
	for _, l := range layerNames {
		ms = append(ms, metric{l.metric, "us", tr.layerUs[l.metric]})
	}
	overhead := 0.0
	if tr.plainRPS > 0 {
		overhead = 100 * (tr.plainRPS - tr.tracedRPS) / tr.plainRPS
	}
	c := r.cycle()
	u := r.updates()
	phase := func(name string) float64 { return median(r.phases[name]) }
	return append(ms,
		metric{"trace.coverage", "ratio", tr.coverage},
		metric{"trace.frontend_share", "ratio", tr.frontShare},
		metric{"trace.overhead_pct", "%", overhead},
		metric{"exec.work", "count", c.Work},
		metric{"exec.cout", "count", c.Cout},
		metric{"exec.scanned", "count", float64(c.Scanned)},
		metric{"exec.rows", "count", float64(c.Rows)},
		metric{"store.scan_ns_per_triple", "ns", r.scans.plainNs},
		metric{"store.shard_merge_ratio", "ratio", r.scans.shardRatio},
		metric{"store.overlay_ratio", "ratio", r.scans.overlayRatio},
		metric{"store.update_apply_ms", "ms", u.applyMs},
		metric{"store.compactions", "count", float64(u.compactions)},
		metric{"store.compact_max_ms", "ms", u.compactMaxMs},
		metric{"update_p50_ms", "ms", u.p50},
		metric{"update_tail_ms", "ms", u.tail},
		metric{phaseGenerate, "s", phase(phaseGenerate)},
		metric{phaseBuild, "s", phase(phaseBuild)},
		metric{phaseSnapshot, "s", phase(phaseSnapshot)},
		metric{phaseOpen, "s", phase(phaseOpen)},
		metric{phaseCurate, "s", phase(phaseCurate)},
		metric{phaseWarm, "s", phase(phaseWarm)},
		metric{"core.bindings_analyzed", "count", float64(r.fx.analyzed)},
		metric{"core.classes", "count", float64(r.fx.classCount())},
		metric{"core.class_work_spread", "ratio", r.spreads.class},
		metric{"core.uniform_work_spread", "ratio", r.spreads.uniform},
		metric{"service.cache_hit_ratio", "ratio", r.hitRatio()},
		metric{"served.peak_rss_mb", "MB", r.rssMB},
	)
}

// print writes the human-readable report and, as the last line, the JSON
// result object.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\nworkload %s  seed=%d seconds=%g scale=%s clients=%d\n", r.w.name, r.cfg.seed, r.cfg.seconds, r.cfg.sc.name, r.cfg.clients)
	fmt.Fprintf(w, "  why: %s\n", r.w.why)
	fmt.Fprintf(w, "  stream_sha256 %s  (%d queries, %d per client cycle, %d warm-up)\n", r.st.sha256, len(r.st.queries), len(r.st.clients[0]), len(r.st.warm))
	fmt.Fprintf(w, "  ops attempted %d, failed %d; read samples %d, update samples %d\n", r.res.attempted, r.res.failed, len(r.res.readMs), len(r.res.updateMs))
	fmt.Fprintf(w, "  end to end:\n")
	for _, m := range r.endToEnd() {
		fmt.Fprintf(w, "    %-26s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "    setup_s samples: %.3f\n", r.setups)
	if u := r.updates(); u.tailP > 0 {
		fmt.Fprintf(w, "    update_tail_ms is p%g = %.4f ms (the highest percentile with 10 samples beyond it)\n", u.tailP, u.tail)
	}
	r.printClasses(w)
	if r.tr != nil {
		fmt.Fprintf(w, "  per layer:\n")
	} else {
		fmt.Fprintf(w, "  per layer (traced-run metrics are 0 without -trace 1):\n")
	}
	for _, m := range r.perLayer() {
		fmt.Fprintf(w, "    %-26s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if r.tr != nil {
		fmt.Fprintf(w, "  traced run: %d requests (%d reads), %.1f traced vs %.1f untraced in-process requests/s, spans in %s\n",
			r.tr.requests, r.tr.reads, r.tr.tracedRPS, r.tr.plainRPS, r.tr.file)
	}
	if want, ok := r.expected(); ok {
		got := r.cycle()
		switch {
		case got.Stream != want.Stream:
			fmt.Fprintf(w, "  expected.json: the seed-1 stream changed (curation or sampling differs); sums not compared\n")
		case got != want:
			fmt.Fprintf(w, "  expected.json: DRIFT got %+v want %+v\n", got, want)
		default:
			fmt.Fprintf(w, "  expected.json: rows and accounting match\n")
		}
	}
	if line, err := json.Marshal(r.cycle()); err == nil {
		fmt.Fprintf(w, "  cycle sums: %s\n", line)
	}
	for _, p := range r.problems() {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	ms := r.endToEnd()
	if r.cfg.trace {
		ms = r.perLayer()
	}
	fmt.Fprintln(w, resultLine(r.correct(), r.res.attempted, r.res.failed, ms))
}

// printClasses prints read latency per curated class with its
// coefficient of variation: within a class requests cost alike, which is
// why the end-to-end numbers repeat.
func (r *report) printClasses(w io.Writer) {
	byClass := map[string][]float64{}
	for i, ms := range r.res.readMs {
		c := r.st.queries[r.res.readQuery[i]].class
		byClass[c] = append(byClass[c], ms)
	}
	fmt.Fprintf(w, "  read latency per class (ms):\n")
	for _, c := range r.st.classes() {
		xs := byClass[c]
		if len(xs) == 0 {
			continue
		}
		line := fmt.Sprintf("    %-6s n=%-6d p50 %9.4f  cv %.3f", c, len(xs), stats.Percentile(xs, 50), coefVar(xs))
		if p, ok := pickPercentile(len(xs)); ok {
			line += fmt.Sprintf("  p%g %9.4f", p, stats.Percentile(xs, p))
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine renders the one-line JSON result the driver reads.
func resultLine(correct bool, attempted, failed int, ms []metric) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // NaN or Inf in a metric: a harness bug
	}
	return string(line)
}

// printMachine prints the machine descriptor: numbers from different
// boxes do not compare.
func printMachine(w io.Writer, cfg config) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = cfg.root
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s commit=%s clients=%d scale=%s (%d products) seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel, commit,
		cfg.clients, cfg.sc.name, cfg.sc.data.Products, cfg.seconds)
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(w, "WARNING: nproc < 2 — the closed loop has one client and shares its only core with the server; numbers do not compare with a 2-core run")
	}
}
