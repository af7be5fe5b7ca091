package service

import (
	"container/list"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sparql"
)

// bindingSignature returns a canonical string identity for a parameter
// binding: the parameter names in sorted order, each with its term in
// N-Triples syntax. Two bindings have equal signatures iff they substitute
// the same terms for the same parameters — the binding-side analogue of
// plan.Node.Signature's plan identity.
func bindingSignature(b sparql.Binding) string {
	if len(b) == 0 {
		return ""
	}
	names := make([]string, 0, len(b))
	for p := range b {
		names = append(names, string(p))
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte('\x1f')
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(b[sparql.Param(n)].Key())
	}
	return sb.String()
}

// cacheKey is the plan-cache key of one (template, binding) execution:
// the canonical template text joined with the binding's signature. Against
// an immutable store, equal keys compile to identical Compiled queries and
// optimize to identical plans, so cached entries can be reused without
// re-running DPsub.
func cacheKey(templateText string, b sparql.Binding) string {
	return templateText + "\x00" + bindingSignature(b)
}

// planEntry is one cached compilation: the compiled query and its optimized
// plan, lowered and checked. Both are immutable once built and may be
// executed concurrently against the snapshot they were compiled for, so a
// cache hit skips parsing, compilation, DPsub and lowering entirely.
type planEntry struct {
	key string
	c   *plan.Compiled
	p   *plan.Plan
}

// cacheCounters are the service-lifetime hit/miss/eviction counters. They
// live outside the cache itself so they survive snapshot swaps (each swap
// installs a fresh cache, since cached plans embed the old snapshot's
// dictionary IDs).
type cacheCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// planCache is a concurrency-safe LRU of plan entries keyed by
// cacheKey. A non-positive capacity disables caching (every get is a
// miss, every put a no-op) — used to measure the cold path.
type planCache struct {
	counters *cacheCounters
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

func newPlanCache(capacity int, counters *cacheCounters) *planCache {
	return &planCache{
		counters: counters,
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// get returns the entry under key, marking it most recently used.
func (pc *planCache) get(key string) (*planEntry, bool) {
	if pc.capacity <= 0 {
		pc.counters.misses.Add(1)
		return nil, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.byKey[key]
	if !ok {
		pc.counters.misses.Add(1)
		return nil, false
	}
	pc.ll.MoveToFront(el)
	pc.counters.hits.Add(1)
	return el.Value.(*planEntry), true
}

// put inserts e, evicting the least recently used entry when full. A
// concurrent racer may have inserted the same key already; the existing
// entry wins (both were compiled from identical inputs).
func (pc *planCache) put(e *planEntry) {
	if pc.capacity <= 0 {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[e.key]; ok {
		pc.ll.MoveToFront(el)
		return
	}
	pc.byKey[e.key] = pc.ll.PushFront(e)
	for pc.ll.Len() > pc.capacity {
		last := pc.ll.Back()
		pc.ll.Remove(last)
		delete(pc.byKey, last.Value.(*planEntry).key)
		pc.counters.evictions.Add(1)
	}
}

// size returns the current number of cached entries.
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.ll.Len()
}
