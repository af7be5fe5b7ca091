package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Set-up phases, by the per-layer metric each is reported as. setup_s is
// their sum plus the untimed glue between them.
const (
	phaseGenerate = "bsbm.generate_s"
	phaseBuild    = "store.build_s"
	phaseSnapshot = "store.snapshot_write_s"
	phaseOpen     = "store.open_s"
	phaseCurate   = "core.curate_s"
	phaseWarm     = "service.warmup_s"
)

// A fixture is the generated dataset of one set-up: the unsharded heap
// store (curation input and the reference every served answer is checked
// against) and the snapshot on disk that served maps.
type fixture struct {
	sc    scale
	heap  *store.Store
	path  string             // snapshot file, or sharded snapshot directory
	phase map[string]float64 // seconds per set-up phase

	clusterings map[string]*core.Clustering // by template
	analyzed    int                         // bindings the curation analyzed
}

// timed adds f's wall time to the named phase.
func (fx *fixture) timed(phase string, f func() error) error {
	t0 := time.Now()
	err := f()
	fx.phase[phase] += time.Since(t0).Seconds()
	return err
}

// newFixture generates the BSBM dataset, builds its indexes and writes
// the v4 snapshot (one file, or a 4-shard directory) under dir.
func newFixture(sc scale, sharded bool, dir string) (*fixture, error) {
	fx := &fixture{sc: sc, phase: map[string]float64{}, clusterings: map[string]*core.Clustering{}}
	b := store.NewBuilder()
	if err := fx.timed(phaseGenerate, func() error {
		_, err := bsbm.Generate(sc.data, b.Add)
		return err
	}); err != nil {
		return nil, fmt.Errorf("generating BSBM: %w", err)
	}
	fx.timed(phaseBuild, func() error { fx.heap = b.Build(); return nil })
	err := fx.timed(phaseSnapshot, func() error {
		if sharded {
			fx.path = filepath.Join(dir, "shards")
			return store.WriteSharded(fx.path, store.NewSharded(fx.heap, shards))
		}
		fx.path = filepath.Join(dir, "bsbm.v4.snap")
		f, err := os.Create(fx.path)
		if err != nil {
			return err
		}
		if err := fx.heap.WriteSnapshotVersion(f, 4); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	return fx, nil
}

// parsed holds every template parsed once; Bind copies, so the parsed
// queries are shared freely between goroutines.
var parsed = func() map[string]*sparql.Query {
	m := make(map[string]*sparql.Query, len(templates))
	for name, text := range templates {
		m[name] = sparql.MustParse(text)
	}
	return m
}()

func template(name string) *sparql.Query { return parsed[name] }

// curate runs the paper's pipeline (extract domain → analyze → cluster)
// for one template, dropping classes smaller than minClass as the paper
// prescribes. Results are memoized per template.
func (fx *fixture) curate(tmpl string, minClass int) (*core.Clustering, error) {
	if cl, ok := fx.clusterings[tmpl]; ok {
		return cl, nil
	}
	var cl *core.Clustering
	err := fx.timed(phaseCurate, func() error {
		a, c, err := core.Pipeline{
			Analyze: core.AnalyzeOptions{Seed: fixtureSeed},
			Cluster: core.ClusterOptions{MinClassSize: minClass},
		}.Run(template(tmpl), fx.heap)
		if err != nil {
			return err
		}
		cl = c
		fx.analyzed += len(a.Points)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("curating %s: %w", tmpl, err)
	}
	fx.clusterings[tmpl] = cl
	return cl, nil
}

// domain extracts a template's parameter domain (curation's first step,
// and all of it for a uniform stream).
func (fx *fixture) domain(tmpl string) (*core.Domain, error) {
	var dom *core.Domain
	err := fx.timed(phaseCurate, func() (err error) {
		dom, err = core.ExtractDomain(template(tmpl), fx.heap)
		return err
	})
	return dom, err
}

// classCount is the number of curated classes across templates.
func (fx *fixture) classCount() int {
	n := 0
	for _, cl := range fx.clusterings {
		n += len(cl.Classes)
	}
	return n
}
