package store

import (
	"runtime"
	"sync"

	"repro/internal/dict"
)

// Store construction. Both Builder.Build and ReadSnapshot funnel into
// buildIndexes, the single shared path that turns a deduplicated triple
// set into a fully indexed Store: the base SPO index is sorted once, the
// other five permutations are copied up front and sorted concurrently
// (at most GOMAXPROCS at a time), and each statistics pass starts as soon
// as the one index it reads (PSO or POS) is ready instead of waiting for
// the whole build. The result is byte-identical at any GOMAXPROCS: every
// index is a permutation of distinct triples, so the unstable sort has a
// unique fixpoint regardless of scheduling.

// buildIndexes constructs a Store over d from a set of distinct triples,
// taking ownership of the slice (it becomes the SPO index after sorting).
// Statistics depend only on the PSO and POS indexes, so those two are
// sorted first and each stats pass blocks on exactly the index it reads.
func buildIndexes(d *dict.Dict, triples []IDTriple) *Store {
	s := &Store{dict: d, n: len(triples), sdir: new(subjectDir)}
	s.idx[orderSPO] = triples
	// Copy the five derived permutations before any sorting starts so
	// every copy sees the same (unsorted) base; the sorts then proceed
	// independently.
	for o := orderSPO + 1; o < numOrders; o++ {
		cp := make([]IDTriple, len(triples))
		copy(cp, triples)
		s.idx[o] = cp
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var ready [numOrders]chan struct{}
	for o := range ready {
		ready[o] = make(chan struct{})
	}
	var wg sync.WaitGroup
	sortOne := func(o order) {
		defer wg.Done()
		sem <- struct{}{}
		if o != orderSPO || !isSortedByOrder(s.idx[o], o) {
			sortByOrder(s.idx[o], o)
		}
		<-sem
		close(ready[o])
	}
	// Stats inputs first, then the base, then the remaining permutations.
	for _, o := range [numOrders]order{orderPSO, orderPOS, orderSPO, orderSOP, orderOSP, orderOPS} {
		wg.Add(1)
		go sortOne(o)
	}
	// The rdf:type lookup only reads the dictionary, which is safe to
	// share with the sort workers.
	typeID := lookupType(s.dict)
	var (
		pstats   map[dict.ID]PredStats
		distO    map[dict.ID]int
		typeIdx  map[dict.ID][]dict.ID
		statsWG  sync.WaitGroup
		runAfter = func(dep order, f func()) {
			defer statsWG.Done()
			<-ready[dep]
			sem <- struct{}{}
			f()
			<-sem
		}
	)
	statsWG.Add(3)
	go runAfter(orderPSO, func() { pstats = statsFromPSO(s.idx[orderPSO]) })
	go runAfter(orderPOS, func() { distO = distinctObjectsFromPOS(s.idx[orderPOS]) })
	go runAfter(orderPOS, func() {
		typeIdx = make(map[dict.ID][]dict.ID)
		if typeID != dict.None {
			typeIdx = typeIndexFromPOS(s.idx[orderPOS], typeID)
		}
	})
	wg.Wait()
	statsWG.Wait()
	mergeDistinctObjects(pstats, distO)
	s.pstats = pstats
	s.typeIdx = typeIdx
	s.typeID = typeID
	return s
}

func isSortedByOrder(ts []IDTriple, o order) bool {
	for i := 1; i < len(ts); i++ {
		if lessByOrder(ts[i], ts[i-1], o) {
			return false
		}
	}
	return true
}

// statsFromPSO computes per-predicate triple counts and distinct subject
// counts; predicate runs are contiguous in PSO order.
func statsFromPSO(pso []IDTriple) map[dict.ID]PredStats {
	out := make(map[dict.ID]PredStats)
	for i := 0; i < len(pso); {
		p := pso[i].P
		st := PredStats{}
		var lastS dict.ID
		j := i
		for ; j < len(pso) && pso[j].P == p; j++ {
			st.Count++
			if j == i || pso[j].S != lastS {
				st.DistinctS++
				lastS = pso[j].S
			}
		}
		out[p] = st
		i = j
	}
	return out
}

// distinctObjectsFromPOS computes distinct object counts per predicate;
// within a predicate run of the POS index equal objects are adjacent.
func distinctObjectsFromPOS(pos []IDTriple) map[dict.ID]int {
	out := make(map[dict.ID]int)
	for i := 0; i < len(pos); {
		p := pos[i].P
		distinct := 0
		var lastO dict.ID
		j := i
		for ; j < len(pos) && pos[j].P == p; j++ {
			if j == i || pos[j].O != lastO {
				distinct++
				lastO = pos[j].O
			}
		}
		out[p] = distinct
		i = j
	}
	return out
}

func mergeDistinctObjects(pstats map[dict.ID]PredStats, distO map[dict.ID]int) {
	for p, n := range distO {
		st := pstats[p]
		st.DistinctO = n
		pstats[p] = st
	}
}

// typeIndexFromPOS builds the class -> sorted member subjects index from
// the POS range of rdf:type triples. POS order sorts that range by class
// and then by subject, so every class is a single contiguous run with its
// subjects already sorted and distinct.
func typeIndexFromPOS(pos []IDTriple, typeID dict.ID) map[dict.ID][]dict.ID {
	out := make(map[dict.ID][]dict.ID)
	lo, hi := searchRange(pos, orderPOS, Pattern{P: typeID})
	members := pos[lo:hi]
	for i := 0; i < len(members); {
		c := members[i].O
		j := i
		var subjects []dict.ID
		for ; j < len(members) && members[j].O == c; j++ {
			if len(subjects) == 0 || subjects[len(subjects)-1] != members[j].S {
				subjects = append(subjects, members[j].S)
			}
		}
		out[c] = subjects
		i = j
	}
	return out
}
