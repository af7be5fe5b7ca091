// Command served runs the concurrent query service over an N-Triples file
// or a binary store snapshot, exposing the JSON HTTP API:
//
//	served -data dataset.snap -addr :8080
//
//	POST /query    {"query": "SELECT ...", "bindings": {"t": "<iri>"}}
//	POST /prepare  {"name": "q4", "query": "SELECT ... %ProductType ..."}
//	POST /execute  {"name": "q4", "bindings": {"ProductType": "<iri>"}}
//	POST /execute  {"name": "q4", "batch": [{...}, {...}]}
//	POST /reload   {"path": "new.snap"}      (requires -allow-reload)
//	POST /update   {"update": "INSERT DATA { ... }"}  (requires -allow-update)
//	GET  /stats
//	GET  /healthz
//
// Templates are parsed once at /prepare; per-binding executions share an
// LRU plan cache, so repeated bindings skip join-order optimization. A
// bounded worker pool rejects excess load with 429. /reload atomically
// swaps in a new snapshot while in-flight queries finish on the old one;
// it loads whatever server-readable path the client names, so it is off by
// default and should only be enabled on trusted listeners.
//
// Results are streamed in chunks of a few tens of KiB as their rows are
// rendered, so there is no write timeout; a connection that stalls inside a
// request header (readHeaderTimeout) or idles (idleTimeout) is closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/service"
)

// pprofMux builds the standard net/http/pprof mux explicitly instead of
// relying on the package's DefaultServeMux side-effect registration, so
// importing it here cannot expose profiles on the API server.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// config is the command line: where to load from and listen, what to run
// at startup, and the service options every other flag sets.
type config struct {
	data, addr, upRun, pprofAddr string
	opts                         service.Options
}

// parseFlags parses served's command line into a config.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	var (
		data    = fs.String("data", "", "N-Triples (.nt) or snapshot file (required)")
		addr    = fs.String("addr", "127.0.0.1:8080", "listen address (bind non-loopback only on trusted networks)")
		workers = fs.Int("workers", 0, "shared CPU budget: max concurrent query executions plus intra-query workers (0 = GOMAXPROCS)")
		queue   = fs.Int("queue", 0, "max queued requests beyond running ones (0 = 4x workers, negative = no queue)")
		par     = fs.Int("parallelism", 1, "per-query intra-query worker ceiling; extra workers are drawn from the shared -workers token pool (1 = serial, paper-experiment semantics)")
		cache   = fs.Int("cache", 0, "plan cache entries (0 = 1024, negative = disabled)")
		exact   = fs.Bool("exact-accounting", false, "drain LIMIT pipelines for paper-exact Cout/Work accounting instead of stopping early")
		reload  = fs.Bool("allow-reload", false, "enable POST /reload (loads any server-readable path a client names)")
		update  = fs.Bool("allow-update", false, "enable POST /update (SPARQL-Update INSERT DATA / DELETE DATA)")
		upRun   = fs.String("updaterun", "", "SPARQL-Update text (or @file) applied once at startup before serving")
		compact = fs.Int("compact-threshold", 0, "pending delta size that triggers auto-compaction on update (0 = adaptive max(1024, base/8), negative = never)")
		heap    = fs.Bool("heap-load", false, "fully deserialize snapshots into heap indexes instead of serving v4 snapshots from an OS file mapping")
		shards  = fs.Int("shards", 0, "coordinator mode: partition the store into this many subject-hash shards and scatter-gather every query across them (results and accounting are identical at any shard count; <= 1 serves a single store)")

		traceSample = fs.Int("trace-sample", 0, "trace every Nth query and retain it in the /trace/recent ring (0 = off)")
		slowMs      = fs.Int("slow-query-ms", 0, "trace every query and retain+log any at or above this many milliseconds (0 = off)")
		traceRecent = fs.Int("trace-recent", 0, "recent-trace ring capacity for /trace/recent (0 = 64)")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (off when empty; bind loopback only)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	opts := service.DefaultOptions()
	if *exact {
		opts.Exec = exec.Options{}
	}
	opts.Exec.Parallelism = *par
	opts.Workers = *workers
	opts.QueueDepth = *queue
	opts.PlanCacheSize = *cache
	opts.AllowReload = *reload
	opts.AllowUpdate = *update
	opts.CompactThreshold = *compact
	opts.HeapLoad = *heap
	opts.Shards = *shards
	opts.TraceSample = *traceSample
	opts.SlowQueryMs = *slowMs
	opts.TraceRecent = *traceRecent
	if *slowMs > 0 {
		opts.SlowLog = os.Stderr
	}
	return config{data: *data, addr: *addr, upRun: *upRun, pprofAddr: *pprofAddr, opts: opts}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if cfg.data == "" {
		fmt.Fprintln(os.Stderr, "served: -data is required")
		os.Exit(2)
	}
	svc, err := service.Load(cfg.data, cfg.opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
	if cfg.upRun != "" {
		src := cfg.upRun
		if strings.HasPrefix(src, "@") {
			data, err := os.ReadFile(src[1:])
			if err != nil {
				fmt.Fprintln(os.Stderr, "served:", err)
				os.Exit(1)
			}
			src = string(data)
		}
		res, err := svc.Update(context.Background(), src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "served: -updaterun:", err)
			os.Exit(1)
		}
		log.Printf("served: startup update applied (+%d -%d named triples, %d pending, compacted=%v)",
			res.Inserted, res.Deleted, res.PendingInserts+res.PendingDeletes, res.Compacted)
	}
	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
	log.Printf("served: %d triples from %s, listening on %s", svc.Store().Len(), cfg.data, l.Addr())
	if cfg.pprofAddr != "" {
		pl, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "served: -pprof-addr:", err)
			os.Exit(1)
		}
		log.Printf("served: pprof on %s", pl.Addr())
		// Dedicated mux and listener: pprof never leaks onto the API
		// address, and the gate is simply not passing the flag.
		go func() { _ = http.Serve(pl, pprofMux()) }()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, l, svc); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
}

// Connection timeouts: what a client may hold open without sending. Neither
// limits how long a query runs or how long its result takes to read.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serve runs the HTTP server on l until ctx is cancelled, then shuts down
// gracefully (in-flight requests get up to 5s to finish). Factored out of
// main so tests can drive it with a loopback listener.
func serve(ctx context.Context, l net.Listener, svc *service.Service) error {
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shCtx)
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
