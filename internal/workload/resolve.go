package workload

import (
	"fmt"
	"strings"

	"repro/internal/bsbm"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
)

// templates are the query templates a workload can be named by, per
// dataset.
var templates = map[string]map[string]func() *sparql.Query{
	"bsbm": {"q1": bsbm.Q1, "q2": bsbm.Q2, "q3": bsbm.Q3, "q4": bsbm.Q4, "q5": bsbm.Q5, "q6": bsbm.Q6},
	"snb":  {"q1": snb.Q1, "q2": snb.Q2, "q3": snb.Q3, "q4": snb.Q4},
}

// Resolve returns the store and query template a workload is named by:
// the template of dataset ("bsbm" or "snb") called query ("q1", …) with
// its display name ("Q1", …), over the store opened from snapshot
// (store.Open) when it is set, or else over the dataset generated at the
// scale preset ("default", anything else meaning "test") with seed. The
// names are checked before any store is opened or generated.
func Resolve(dataset, scale, query string, seed int64, snapshot string) (*store.Store, *sparql.Query, string, error) {
	tmpls, ok := templates[dataset]
	if !ok {
		return nil, nil, "", fmt.Errorf("unknown dataset %q", dataset)
	}
	tmpl, ok := tmpls[query]
	if !ok {
		return nil, nil, "", fmt.Errorf("unknown %s query %q", dataset, query)
	}
	var (
		st  *store.Store
		err error
	)
	switch {
	case snapshot != "":
		st, err = store.Open(snapshot)
	case dataset == "bsbm":
		cfg := bsbm.TestConfig()
		if scale == "default" {
			cfg = bsbm.DefaultConfig()
		}
		cfg.Seed = seed
		st, _, err = bsbm.BuildStore(cfg)
	default:
		cfg := snb.TestConfig()
		if scale == "default" {
			cfg = snb.DefaultConfig()
		}
		cfg.Seed = seed
		st, _, err = snb.BuildStore(cfg)
	}
	if err != nil {
		return nil, nil, "", err
	}
	return st, tmpl(), strings.ToUpper(query), nil
}
