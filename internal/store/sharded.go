package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"repro/internal/dict"
)

// Shard directories are an on-disk format: a manifest.json naming the
// format, shard count, total triple count and the per-predicate
// statistics, next to one v4 snapshot file per shard. Shard i holds the
// triples whose subject hashes to i (shardOf) and the full shared
// dictionary; v4 emits terms in ID order, so every shard file assigns
// identical IDs. Open reads a directory as one store: it merges
// the shards' sorted runs once, so every read, update and statistic is
// the single store's.

const shardedManifestName = "manifest.json"

type shardedManifest struct {
	Format  string             `json:"format"`
	Shards  int                `json:"shards"`
	Triples int                `json:"triples"`
	Preds   []shardedPredStats `json:"predicate_stats"`
}

type shardedPredStats struct {
	P         dict.ID `json:"p"`
	Count     int     `json:"count"`
	DistinctS int     `json:"distinct_s"`
	DistinctO int     `json:"distinct_o"`
}

const shardedFormat = "rdfsnap-sharded-v1"

func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.snap", i) }

// Sharded pairs a store with the number of shard files WriteSharded
// splits it into. It embeds the store, so it reads exactly as the store
// does.
type Sharded struct {
	*Store
	shards int
}

// NewSharded pairs st with a shard count n (at least 1), in O(1).
func NewSharded(st *Store, n int) *Sharded { return &Sharded{Store: st, shards: max(n, 1)} }

// shardOf routes a subject ID to its home shard (Fibonacci hashing on the
// ID).
func shardOf(s dict.ID, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(s) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// split partitions a plain store by subject hash into n stores over its
// dictionary. Each of the six runs is filtered in order, so the shards'
// runs come out sorted without a sort.
func (s *Store) split(n int) []*Store {
	counts := make([]int, n)
	for _, t := range s.idx[orderSPO] {
		counts[shardOf(t.S, n)]++
	}
	shards := make([]*Store, n)
	for i := range shards {
		shards[i] = &Store{dict: s.dict, n: counts[i], sdir: new(subjectDir)}
		for o := range shards[i].idx {
			shards[i].idx[o] = make([]IDTriple, 0, counts[i])
		}
	}
	for o := order(0); o < numOrders; o++ {
		for _, t := range s.idx[o] {
			sh := shards[shardOf(t.S, n)]
			sh.idx[o] = append(sh.idx[o], t)
		}
	}
	for _, sh := range shards {
		sh.computeStats()
	}
	return shards
}

// isShardedSnapshot reports whether path is a shard directory (a
// directory containing a manifest.json).
func isShardedSnapshot(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, shardedManifestName))
	return err == nil
}

// WriteSharded writes sh's store as a shard directory at dir, creating it
// if needed, with a pending delta folded in.
func WriteSharded(dir string, sh *Sharded) error {
	st := sh.Store
	if st.delta != nil {
		st = st.delta.Commit()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range st.split(sh.shards) {
		if err := writeShardFile(filepath.Join(dir, shardFileName(i)), s); err != nil {
			return err
		}
	}
	m := shardedManifest{
		Format:  shardedFormat,
		Shards:  sh.shards,
		Triples: st.Len(),
		Preds:   make([]shardedPredStats, 0, len(st.pstats)),
	}
	for p, ps := range st.pstats {
		m.Preds = append(m.Preds, shardedPredStats{P: p, Count: ps.Count, DistinctS: ps.DistinctS, DistinctO: ps.DistinctO})
	}
	sort.Slice(m.Preds, func(i, j int) bool { return m.Preds[i].P < m.Preds[j].P })
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, shardedManifestName), append(data, '\n'), 0o644)
}

func writeShardFile(path string, s *Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSharded opens a shard directory as one store. The shard files are
// opened from OS file mappings; each of their six runs is merged once into
// a heap index over shard 0's dictionary, and the statistics are computed
// from the merged runs. Every shard file carries the same dictionary in the same ID
// order (checked by length), so which file is shard 0 does not matter,
// and neither does which file holds which subjects. A run that is not
// strictly increasing, or a triple stored in two shard files, is a
// *ShardError. The store's dictionary reads shard 0's mapping, which the
// caller owns as it would any mapped store's; the other shards' mappings
// are released.
func loadSharded(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardedManifestName))
	if err != nil {
		return nil, err
	}
	var m shardedManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: sharded manifest %s: %w", dir, err)
	}
	if m.Format != shardedFormat {
		return nil, fmt.Errorf("store: %s: unsupported sharded format %q", dir, m.Format)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("store: %s: invalid shard count %d", dir, m.Shards)
	}
	shards := make([]*Store, m.Shards)
	keep := false // whether shard 0's mapping outlives the call
	defer func() {
		for i, s := range shards {
			if s == nil || i == 0 && keep {
				continue
			}
			if mp := s.Mapping(); mp != nil {
				mp.Release()
			}
		}
	}()
	for i := range shards {
		s, err := openFile(filepath.Join(dir, shardFileName(i)))
		if err != nil {
			return nil, fmt.Errorf("store: sharded shard %d: %w", i, err)
		}
		shards[i] = s
	}
	d := shards[0].dict
	total := 0
	for i, s := range shards {
		if s.dict.Len() != d.Len() {
			return nil, fmt.Errorf("store: sharded shard %d: dictionary length %d != shard 0's %d", i, s.dict.Len(), d.Len())
		}
		total += s.Len()
	}
	if total != m.Triples {
		return nil, fmt.Errorf("store: %s: shard triples sum %d != manifest %d", dir, total, m.Triples)
	}
	st := &Store{dict: d, n: total, sdir: new(subjectDir)}
	var (
		wg   sync.WaitGroup
		errs [numOrders]*ShardError
		sem  = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for o := order(0); o < numOrders; o++ {
		runs := make([][]IDTriple, len(shards))
		for i, s := range shards {
			runs[i] = s.idx[o]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			st.idx[o], errs[o] = mergeShards(runs, o)
			<-sem
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			e.Dir = dir
			return nil, e
		}
	}
	st.computeStats()
	keep = true
	return st, nil
}

// A ShardError reports a shard directory whose files do not hold one
// triple set split into disjoint sorted runs: a run of shard Shard that
// is not strictly increasing at Triple (Other == Shard), or a Triple
// that shards Shard and Other both hold.
type ShardError struct {
	Dir          string
	Order        string // the permutation index whose runs disagree
	Shard, Other int
	Triple       IDTriple
}

func (e *ShardError) Error() string {
	if e.Shard == e.Other {
		return fmt.Sprintf("store: %s: shard %d's %s run is not strictly increasing at %v", e.Dir, e.Shard, e.Order, e.Triple)
	}
	return fmt.Sprintf("store: %s: shards %d and %d both hold %v", e.Dir, e.Shard, e.Other, e.Triple)
}

// mergeShards returns the union of runs, each sorted under o, as one
// fresh run. Each step copies the run with the smallest head up to the
// smallest head of the others, found by galloping, so the cost follows
// the number of stretches, not of triples. A run that is not strictly
// increasing, or a triple two runs share, is a *ShardError: the merge
// could not order it.
func mergeShards(runs [][]IDTriple, o order) ([]IDTriple, *ShardError) {
	p := orderPositions[o]
	n := 0
	for i, r := range runs {
		for j := 1; j < len(r); j++ {
			if !keyBelow(&r[j-1], p, packKey(&r[j], p)) {
				return nil, &ShardError{Order: o.String(), Shard: i, Other: i, Triple: r[j]}
			}
		}
		n += len(r)
	}
	rest := append([][]IDTriple(nil), runs...)
	out := make([]IDTriple, 0, n)
	for {
		m, r := -1, -1 // the run with the smallest head, and the runner-up
		for i, run := range rest {
			switch {
			case len(run) == 0:
			case m < 0 || keyBelow(&run[0], p, packKey(&rest[m][0], p)):
				m, r = i, m
			case r < 0 || keyBelow(&run[0], p, packKey(&rest[r][0], p)):
				r = i
			}
		}
		switch {
		case m < 0:
			return out, nil
		case r < 0:
			return append(out, rest[m]...), nil
		}
		next := packKey(&rest[r][0], p)
		if !keyBelow(&rest[m][0], p, next) {
			return nil, &ShardError{Order: o.String(), Shard: m, Other: r, Triple: rest[m][0]}
		}
		k := gallop(rest[m], p, 1, next)
		out = append(out, rest[m][:k]...)
		rest[m] = rest[m][k:]
	}
}
