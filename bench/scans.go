package main

import (
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

const (
	scanQueries = 256     // stream queries whose patterns are scanned
	scanCap     = 1 << 16 // triples read per pattern, at most
	scanBatch   = 1024
	scanRepeats = 5
)

// A scanCost is the store layer by itself: nanoseconds per triple of
// Source.Scan over the workload's own compiled patterns on a plain store,
// and what the 4-shard k-way merge and a base+ins−del overlay cost
// relative to it.
type scanCost struct {
	plainNs, shardRatio, overlayRatio float64
}

// measureScans times the same scans on the three store shapes a cursor
// has: one plain run, a shard merge and a delta overlay.
func measureScans(fx *fixture, st *stream, seed int64) (scanCost, error) {
	var pats []store.Pattern
	seen := map[store.Pattern]bool{}
	for i, q := range st.queries {
		if i == scanQueries {
			break
		}
		bound, err := template(q.tmpl).Bind(q.binding)
		if err != nil {
			return scanCost{}, err
		}
		c, err := plan.Compile(bound, fx.heap)
		if err != nil {
			return scanCost{}, err
		}
		for _, cp := range c.Patterns {
			if !cp.Missing && !seen[cp.Pat] {
				seen[cp.Pat] = true
				pats = append(pats, cp.Pat)
			}
		}
	}
	// The overlay holds what a few update batches leave pending.
	delta := fx.heap.NewDelta()
	for k := 0; k < 20; k++ {
		u, err := sparql.ParseUpdate(updateOp(fx.sc, seed, 0, k).update)
		if err != nil {
			return scanCost{}, err
		}
		if delta, err = exec.ApplyUpdateDelta(delta, u); err != nil {
			return scanCost{}, err
		}
	}
	plain := scanNsPerTriple(fx.heap, pats)
	sharded := scanNsPerTriple(store.NewSharded(fx.heap, shards), pats)
	overlay := scanNsPerTriple(delta.Overlay(), pats)
	cost := scanCost{plainNs: plain}
	if plain > 0 {
		cost.shardRatio = sharded / plain
		cost.overlayRatio = overlay / plain
	}
	return cost, nil
}

var scanSink store.IDTriple // keeps the per-triple reads from being optimized away

// scanNsPerTriple drains a cursor over every pattern, reading each triple
// (a plain store hands out zero-copy index slices, so without the reads
// there would be nothing to time), and returns the best of a few passes.
func scanNsPerTriple(src store.Source, pats []store.Pattern) float64 {
	best := 0.0
	for r := 0; r < scanRepeats; r++ {
		triples := 0
		var acc store.IDTriple
		t0 := time.Now()
		for _, pat := range pats {
			sc := src.Scan(pat)
			for n := 0; n < scanCap; {
				batch := sc.Next(scanBatch)
				if batch == nil {
					break
				}
				for _, t := range batch {
					acc.S ^= t.S
					acc.P ^= t.P
					acc.O ^= t.O
				}
				n += len(batch)
				triples += len(batch)
			}
		}
		ns := float64(time.Since(t0))
		scanSink = acc
		if triples == 0 {
			return 0
		}
		if per := ns / float64(triples); best == 0 || per < best {
			best = per
		}
	}
	return best
}
