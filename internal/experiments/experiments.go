// Package experiments reproduces every empirical result in the paper:
//
//	E1a — BSBM-BI Q4 runtime variance under uniform parameter sampling
//	E1b — BSBM-BI Q2 runtime distribution vs normal (Kolmogorov–Smirnov)
//	E2  — LDBC Q2 four-group stability table (q10/median/q90/avg)
//	E3  — BSBM-BI Q4 distribution table (min/median/mean/q95/max), bimodality
//	E4  — LDBC Q3 plan variability across country pairs
//	X5  — Cout vs runtime correlation (~85% Pearson, Section III)
//	X6  — the payoff: curated parameter classes restore properties P1–P3
//
// Each experiment returns a typed result plus a rendered table; cmd/repro
// prints them and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bsbm"
	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/snb"
	"repro/internal/store"
	"repro/internal/workload"
)

// Scale bundles the dataset sizes and sampling effort of a full experiment
// run.
type Scale struct {
	Name      string
	BSBM      bsbm.Config
	SNB       snb.Config
	Groups    int // number of independent binding groups (E2)
	GroupSize int // bindings per group (the paper uses 100)
	Samples   int // bindings for distribution experiments (E1/E3/X5)
	Seed      int64
}

// SmallScale is fast enough for unit tests and -short benches (~150k
// triples total).
func SmallScale() Scale {
	return Scale{
		Name:      "small",
		BSBM:      bsbm.TestConfig(),
		SNB:       snb.TestConfig(),
		Groups:    4,
		GroupSize: 40,
		Samples:   120,
		Seed:      1,
	}
}

// PaperScale approximates the paper's setup at laptop size (~2M triples,
// 4 groups × 100 bindings exactly as in E2).
func PaperScale() Scale {
	return Scale{
		Name:      "paper",
		BSBM:      bsbm.DefaultConfig(),
		SNB:       snb.DefaultConfig(),
		Groups:    4,
		GroupSize: 100,
		Samples:   400,
		Seed:      1,
	}
}

// Env holds the generated datasets for one run.
type Env struct {
	Scale    Scale
	BSBM     *store.Store
	BSBMData *bsbm.Dataset
	SNB      *store.Store
	SNBData  *snb.Dataset
}

// NewEnv generates both datasets.
func NewEnv(sc Scale) (*Env, error) { return NewEnvCached(sc, "") }

// NewEnvCached is NewEnv with a snapshot cache: when cacheDir is non-empty,
// each store is loaded from <cacheDir>/<dataset>-<scale>-<seed>.snap if
// present and written there (v4 format) after generation otherwise. Cache
// hits skip dictionary encoding, deduplication and all index sorting — the
// expensive half of dataset preparation — and still re-run the seeded
// generator with a discard sink to recover the Dataset metadata, so a
// cached Env is indistinguishable from a generated one.
func NewEnvCached(sc Scale, cacheDir string) (*Env, error) {
	bst, bds, err := cachedStore(cacheDir, fmt.Sprintf("bsbm-%s-%d", sc.Name, sc.BSBM.Seed),
		func() (*store.Store, *bsbm.Dataset, error) { return bsbm.BuildStore(sc.BSBM) },
		func() (*bsbm.Dataset, error) { return bsbm.Generate(sc.BSBM, discardTriple) })
	if err != nil {
		return nil, fmt.Errorf("experiments: bsbm: %w", err)
	}
	sst, sds, err := cachedStore(cacheDir, fmt.Sprintf("snb-%s-%d", sc.Name, sc.SNB.Seed),
		func() (*store.Store, *snb.Dataset, error) { return snb.BuildStore(sc.SNB) },
		func() (*snb.Dataset, error) { return snb.Generate(sc.SNB, discardTriple) })
	if err != nil {
		return nil, fmt.Errorf("experiments: snb: %w", err)
	}
	return &Env{Scale: sc, BSBM: bst, BSBMData: bds, SNB: sst, SNBData: sds}, nil
}

func discardTriple(rdf.Triple) error { return nil }

// cachedStore loads name's snapshot from dir, falling back to build (and
// then writing the snapshot for next time). meta regenerates the dataset
// metadata on a cache hit without paying for store construction.
func cachedStore[D any](dir, name string, build func() (*store.Store, *D, error), meta func() (*D, error)) (*store.Store, *D, error) {
	if dir == "" {
		return build()
	}
	path := filepath.Join(dir, name+".snap")
	if f, err := os.Open(path); err == nil {
		st, err := store.ReadSnapshot(f)
		f.Close()
		if err == nil {
			ds, err := meta()
			if err != nil {
				return nil, nil, err
			}
			return st, ds, nil
		}
		// A corrupt cache entry (interrupted write, partial download) is a
		// cache miss, not a fatal error: fall through and regenerate.
	}
	st, ds, err := build()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// Write to a temp name and rename so an interrupted run never leaves a
	// truncated snapshot at the cache key, and concurrent readers only ever
	// see complete files.
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return nil, nil, err
	}
	if err := st.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, err
	}
	return st, ds, nil
}

// NewBSBMEnv generates only the BSBM side (for experiments that do not
// need the social network).
func NewBSBMEnv(sc Scale) (*Env, error) {
	bst, bds, err := bsbm.BuildStore(sc.BSBM)
	if err != nil {
		return nil, err
	}
	return &Env{Scale: sc, BSBM: bst, BSBMData: bds}, nil
}

// NewSNBEnv generates only the SNB side.
func NewSNBEnv(sc Scale) (*Env, error) {
	sst, sds, err := snb.BuildStore(sc.SNB)
	if err != nil {
		return nil, err
	}
	return &Env{Scale: sc, SNB: sst, SNBData: sds}, nil
}

// bsbmRunner returns a workload runner over the BSBM store.
func (e *Env) bsbmRunner() *workload.Runner {
	return &workload.Runner{Store: e.BSBM, Opts: exec.Options{}}
}

// snbRunner returns a workload runner over the SNB store.
func (e *Env) snbRunner() *workload.Runner {
	return &workload.Runner{Store: e.SNB, Opts: exec.Options{}}
}
