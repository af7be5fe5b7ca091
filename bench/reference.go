package main

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/exec"
	"repro/internal/store"
)

// An answer is the reference result of one query: what the unsharded heap
// store returns for it, evaluated in this process without the service.
type answer struct {
	rows    int
	hash    uint64
	work    float64
	cout    float64
	scanned int
}

// evaluate runs one query on the reference store.
func evaluate(st *store.Store, q query, opts exec.Options) (answer, error) {
	bound, err := template(q.tmpl).Bind(q.binding)
	if err != nil {
		return answer{}, err
	}
	res, _, err := exec.Query(bound, st, opts)
	if err != nil {
		return answer{}, err
	}
	a := answer{rows: len(res.Rows), work: res.Work, cout: res.Cout, scanned: res.Scanned}
	d := st.Dict()
	cells := make([]string, len(res.Vars))
	for _, row := range res.Rows {
		for j, id := range row {
			if t, ok := d.TryDecode(id); ok {
				cells[j] = t.String()
			} else {
				cells[j] = "UNDEF" // an OPTIONAL left the cell unbound
			}
		}
		a.hash += hashRow(cells)
	}
	return a, nil
}

// evaluateAll answers every query, on all cores. A class sampler draws
// with replacement, so equal requests are evaluated once.
func evaluateAll(st *store.Store, qs []query, opts exec.Options) ([]answer, error) {
	first := map[string]int{} // request body → first query with it
	var distinct []int
	for i, q := range qs {
		if _, ok := first[string(q.op.body)]; !ok {
			first[string(q.op.body)] = i
			distinct = append(distinct, i)
		}
	}
	out := make([]answer, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(distinct); k += workers {
				i := distinct[k]
				out[i], errs[i] = evaluate(st, qs[i], opts)
			}
		}(w)
	}
	wg.Wait()
	for i, q := range qs {
		if err := errs[i]; err != nil {
			return nil, fmt.Errorf("reference evaluation of %s %v: %w", q.tmpl, q.binding, err)
		}
		out[i] = out[first[string(q.op.body)]]
	}
	return out, nil
}
