package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dict"
)

// Sharded snapshots are directories: a manifest.json naming the format,
// shard count, total triple count and the exact global per-predicate
// statistics, next to one v4 snapshot file per shard. Each shard file
// carries the full shared dictionary — v4 emits terms in ID order, so
// every reopened shard dictionary assigns identical IDs and LoadSharded
// can rebind all shards to a single dictionary object, which sharded
// updates require (new terms must get one globally agreed ID).

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

// IsShardedSnapshot reports whether path is a sharded snapshot directory
// (a directory containing a manifest.json).
func IsShardedSnapshot(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, shardedManifestName))
	return err == nil
}

// WriteSharded writes sh as a sharded snapshot directory at dir, creating
// it if needed. Shard files are v4, so a LoadSharded serves them straight
// from OS file mappings.
func WriteSharded(dir string, sh *Sharded) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range sh.shards {
		if err := writeShardFile(filepath.Join(dir, shardFileName(i)), s); err != nil {
			return err
		}
	}
	m := shardedManifest{
		Format:  shardedFormat,
		Shards:  len(sh.shards),
		Triples: sh.Len(),
		Preds:   make([]shardedPredStats, 0, len(sh.pstats)),
	}
	for p, st := range sh.pstats {
		m.Preds = append(m.Preds, shardedPredStats{P: p, Count: st.Count, DistinctS: st.DistinctS, DistinctO: st.DistinctO})
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

// LoadSharded opens a sharded snapshot directory. With heapLoad false the
// shard files are served from OS file mappings (the O(1) path); with
// heapLoad true they are deserialized onto the heap. All shards are
// rebound to shard 0's dictionary so the federation encodes new terms
// into one ID space; the rebinding is sound because every shard file
// carries the same dictionary in the same ID order, which is verified by
// length before rebinding.
func LoadSharded(dir string, heapLoad bool) (*Sharded, error) {
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
	release := func() {
		for _, s := range shards {
			if s == nil {
				continue
			}
			if mp := s.Mapping(); mp != nil {
				mp.Release()
			}
		}
	}
	for i := range shards {
		path := filepath.Join(dir, shardFileName(i))
		var (
			s   *Store
			err error
		)
		if heapLoad {
			s, err = LoadAny(path)
		} else {
			s, err = LoadAnyMapped(path)
		}
		if err != nil {
			release()
			return nil, fmt.Errorf("store: sharded shard %d: %w", i, err)
		}
		shards[i] = s
	}
	d := shards[0].dict
	total := shards[0].Len()
	for i, s := range shards[1:] {
		if s.dict.Len() != d.Len() {
			release()
			return nil, fmt.Errorf("store: sharded shard %d: dictionary length %d != shard 0's %d", i+1, s.dict.Len(), d.Len())
		}
		s.dict = d
		total += s.Len()
	}
	if total != m.Triples {
		release()
		return nil, fmt.Errorf("store: %s: shard triples sum %d != manifest %d", dir, total, m.Triples)
	}
	pstats := make(map[dict.ID]PredStats, len(m.Preds))
	for _, ps := range m.Preds {
		pstats[ps.P] = PredStats{Count: ps.Count, DistinctS: ps.DistinctS, DistinctO: ps.DistinctO}
	}
	return &Sharded{shards: shards, dict: d, n: total, pstats: pstats}, nil
}
