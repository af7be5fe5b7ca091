// Command bench is the repository's benchmark: it generates a BSBM
// fixture, starts the real cmd/served binary on loopback, replays a
// fixed, seeded request stream per workload over HTTP from a closed loop
// of nproc clients, checks every response against an in-process reference
// evaluation and prints every metric by name with its unit. The curated
// streams come from internal/core's own pipeline — the paper's
// contribution is the load generator. See README.md beside this file.
//
//	go run ./bench                                   # all four workloads
//	go run ./bench -workload bsbm.curated-hit        # one workload
//	go run ./bench -trace 1                          # adds the in-process traced run
//	go run ./bench -seed 7 -seconds 20
//
// The last line of standard output is one JSON object per workload run:
// the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// A config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	clients int
	root    string // the checkout
	bin     string // the built served binary
	tmp     string // this invocation's scratch directory under bench/out
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four, in order)")
	seed := fs.Int64("seed", 1, "seed of the request streams; the only workload input")
	seconds := fs.Float64("seconds", 15, "length of the timed run")
	trace := fs.Int("trace", 0, "1 adds the in-process traced run and reports the per-layer metrics")
	scaleName := fs.String("scale", "default", "fixture size: default or test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, sc: sc, clients: runtime.NumCPU()}
	correct, err := runAll(ctx, cfg, selected, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// runAll builds served once and runs the selected workloads in order. An
// error means a run could not be measured and printed no result; correct
// is false when a run was measured and failed one of its checks.
func runAll(ctx context.Context, cfg config, selected []*workload, stdout io.Writer) (correct bool, err error) {
	if cfg.root, err = findRoot(); err != nil {
		return false, err
	}
	outDir := filepath.Join(cfg.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	if cfg.tmp, err = os.MkdirTemp(outDir, "run-"); err != nil {
		return false, err
	}
	defer os.RemoveAll(cfg.tmp)
	if cfg.bin, err = buildServed(ctx, cfg.root, cfg.tmp); err != nil {
		return false, err
	}
	printMachine(stdout, cfg)
	correct = true
	for _, w := range selected {
		rep, err := runWorkload(ctx, cfg, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.print(stdout)
		correct = correct && rep.correct()
	}
	return correct, nil
}

// findRoot walks up from the working directory to the module root, so the
// benchmark runs from the checkout (go run ./bench) and from its own
// directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "served")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod with cmd/served above the working directory")
		}
		dir = parent
	}
}

// An environment is one completed set-up: fixture on disk, server
// running, templates prepared, stream built, caches warm.
type environment struct {
	fx     *fixture
	srv    *server
	lg     *loadgen
	dir    string
	setupS float64
}

func (e *environment) close() {
	if e.srv != nil {
		e.srv.stop()
	}
	os.RemoveAll(e.dir)
}

// setUp does everything that precedes the first timed request; its wall
// time is one setup_s sample.
func setUp(ctx context.Context, cfg config, w *workload, dir string) (_ *environment, err error) {
	t0 := time.Now()
	env := &environment{dir: dir}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx, err := newFixture(cfg.sc, w.sharded, dir)
	if err != nil {
		return nil, err
	}
	env.fx = fx
	// served runs with the flags an operator gets by default, plus only
	// what the workload cannot do without: a later change of a default
	// shows up here without an edit to the benchmark.
	args := []string{"-data", fx.path}
	if w.updates {
		args = append(args, "-allow-update")
	}
	if err := fx.timed(phaseOpen, func() (err error) { env.srv, err = startServer(ctx, cfg.bin, args...); return }); err != nil {
		return nil, err
	}
	env.lg = &loadgen{url: env.srv.base, w: w, sc: cfg.sc, seed: cfg.seed, base: fx.heap.Len()}
	if err := env.lg.prepare(); err != nil {
		return nil, err
	}
	if env.lg.st, err = buildStream(w, fx, cfg.seed, cfg.clients); err != nil {
		return nil, err
	}
	if err := fx.timed(phaseWarm, func() error { return env.lg.warmUp(cfg.clients) }); err != nil {
		return nil, fmt.Errorf("%w; served stderr:\n%s", err, env.srv.log())
	}
	env.setupS = time.Since(t0).Seconds()
	return env, nil
}

// servedOptions asks the running server which engine it executes with,
// so the reference evaluation and the traced replay use the engine served
// picked by default.
func servedOptions(url string) (service.Options, error) {
	opts := service.DefaultOptions()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		return opts, err
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return opts, fmt.Errorf("/stats: %w", err)
	}
	if opts.Exec.Mode, err = service.ParseEngineMode(st.Engine.Mode); err != nil {
		return opts, err
	}
	opts.Exec.Leapfrog = st.Engine.Leapfrog
	return opts, nil
}

func runWorkload(ctx context.Context, cfg config, w *workload) (*report, error) {
	rep := &report{w: w, cfg: cfg, phases: map[string][]float64{}}
	var env *environment
	for i := 0; i < cfg.sc.setups; i++ {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = setUp(ctx, cfg, w, filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d", w.name, i))); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, env.setupS)
		for name, s := range env.fx.phase {
			rep.phases[name] = append(rep.phases[name], s)
		}
	}
	defer env.close()
	fx, lg := env.fx, env.lg
	rep.st, rep.fx = lg.st, fx

	opts, err := servedOptions(env.srv.base)
	if err != nil {
		return nil, err
	}
	if lg.answers, err = evaluateAll(fx.heap, lg.st.queries, opts.Exec); err != nil {
		return nil, err
	}
	rep.answers = lg.answers

	rep.res = lg.run(ctx, time.Duration(cfg.seconds*float64(time.Second)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.rssMB = env.srv.peakRSSMB()
	if rep.res.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed; served stderr:\n%s", w.name, rep.res.failed, rep.res.attempted, env.srv.log())
	}
	if n := len(rep.res.readMs); n < cfg.sc.minReadSamples {
		return nil, fmt.Errorf("%d correct read samples in %.0fs, p99 needs %d (failed ops: %d %v)",
			n, cfg.seconds, cfg.sc.minReadSamples, rep.res.failed, rep.res.notes)
	}
	env.srv.stop() // the traced run is in process; free the cores and the memory

	if cfg.trace {
		budget := time.Duration(cfg.seconds * float64(time.Second))
		file := filepath.Join(cfg.root, "bench", "out", "trace-"+w.name+".json")
		if rep.tr, err = runTrace(ctx, w, fx, lg.st, cfg.seed, opts, budget, file); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		if rep.spreads, err = workSpreads(fx, lg.st, lg.answers, cfg.seed, opts.Exec); err != nil {
			return nil, err
		}
		if rep.scans, err = measureScans(fx, lg.st, cfg.seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
