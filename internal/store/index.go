package store

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/dict"
)

// order identifies one of the six triple component permutations.
type order uint8

const (
	orderSPO order = iota
	orderSOP
	orderPSO
	orderPOS
	orderOSP
	orderOPS
	numOrders
)

// orderPositions[o] lists triple positions (0=S,1=P,2=O) in sort-key order.
var orderPositions = [numOrders][3]int{
	orderSPO: {0, 1, 2},
	orderSOP: {0, 2, 1},
	orderPSO: {1, 0, 2},
	orderPOS: {1, 2, 0},
	orderOSP: {2, 0, 1},
	orderOPS: {2, 1, 0},
}

// String names the order for debugging.
func (o order) String() string {
	names := [numOrders]string{"SPO", "SOP", "PSO", "POS", "OSP", "OPS"}
	if int(o) < len(names) {
		return names[o]
	}
	return "?"
}

// orderForMask maps a bound-position bitmask (bit0=S, bit1=P, bit2=O) to an
// index whose sort key starts with exactly the bound positions, so matches
// form one contiguous range.
var orderForMask = [8]order{
	0:         orderSPO, // no bound positions: full scan, any order
	1:         orderSPO, // S
	2:         orderPSO, // P
	4:         orderOSP, // O
	1 | 2:     orderSPO, // S,P
	1 | 4:     orderSOP, // S,O
	2 | 4:     orderPOS, // P,O
	1 | 2 | 4: orderSPO, // S,P,O
}

func orderFor(mask int) order { return orderForMask[mask&7] }

// key extracts the three-component sort key of t under order o.
func key(t IDTriple, o order) (a, b, c dict.ID) {
	p := orderPositions[o]
	return positionValue(t, p[0]), positionValue(t, p[1]), positionValue(t, p[2])
}

func lessByOrder(x, y IDTriple, o order) bool {
	xa, xb, xc := key(x, o)
	ya, yb, yc := key(y, o)
	if xa != ya {
		return xa < ya
	}
	if xb != yb {
		return xb < yb
	}
	return xc < yc
}

// sortByOrder sorts via the generic (non-reflective) pdqsort. The sort is
// unstable, but a deduplicated triple set has no equal elements under any
// full permutation, so the result is the unique sorted sequence regardless
// of input order or scheduling.
func sortByOrder(ts []IDTriple, o order) {
	p := orderPositions[o]
	slices.SortFunc(ts, func(x, y IDTriple) int {
		// Pack the first two key components of each triple into one
		// uint64 so most comparisons are a single branch.
		xk := uint64(positionValue(x, p[0]))<<32 | uint64(positionValue(x, p[1]))
		yk := uint64(positionValue(y, p[0]))<<32 | uint64(positionValue(y, p[1]))
		switch {
		case xk < yk:
			return -1
		case xk > yk:
			return 1
		}
		xc, yc := positionValue(x, p[2]), positionValue(y, p[2])
		switch {
		case xc < yc:
			return -1
		case xc > yc:
			return 1
		}
		return 0
	})
}

// searchRange returns the half-open index range [lo, hi) of triples in idx
// (sorted by o) matching pat. pat's bound positions must be a prefix of o's
// sort key (guaranteed by orderFor). It is the one probe kernel: reads
// reach a base run through Store.baseRange and a delta run through
// Delta.runs, whose search is runFor.
//
// The zero-padded prefix is the smallest sort key of the range; the prefix
// plus one in its last bound component, carrying upward, the smallest key
// above it. The lower bound is one binary search; the upper bound gallops
// from it, because a probe's range is a handful of triples in hundreds of
// thousands (ARCHITECTURE.md, "The probe kernel").
func searchRange(idx []IDTriple, o order, pat Pattern) (lo, hi int) {
	k, nb := prefixBounds(o, pat)
	if nb == 0 {
		return 0, len(idx)
	}
	p := orderPositions[o]
	lo = lowerBound(idx, p, 0, len(idx), packPrefix(k))
	for i := nb - 1; ; i-- {
		if i < 0 {
			// Every bound component is MaxUint32: the increment carried
			// out of the key, so nothing sorts above the prefix.
			return lo, len(idx)
		}
		k[i]++
		if k[i] != 0 {
			break
		}
	}
	return lo, gallop(idx, p, lo, packPrefix(k))
}

// walkLimit is the longest subject group Store.baseRange walks instead of
// searching. The BSBM groups a probe meets hold 1 to 13 triples, where a
// forward walk of two compares per triple beats a binary search and a
// gallop through packKey (ARCHITECTURE.md, "The probe kernel"). It is a
// constant, not an option: past it the search's logarithm wins.
const walkLimit = 32

// walkGroup returns what searchRange(g, o, pat) returns for g, one
// subject's group of an SPO or SOP run, in one pass over it. pat binds S
// and the second sort component, and maybe the third. Inside the group
// only those two remain, packed into one uint64: (P, O) for SPO, and the
// same word rotated to (O, P) for SOP. The range is every triple whose
// word lies in [from, to), so lo counts the words below from and hi those
// below to, without a branch; to is 0 when the increment carries out of
// the word, and then nothing sorts above the prefix.
func walkGroup(g []IDTriple, o order, pat Pattern) (lo, hi int) {
	rot := 0
	if o == orderSOP {
		rot = 32
	}
	from := bits.RotateLeft64(uint64(pat.P)<<32|uint64(pat.O), rot)
	to := from + 1
	if from&math.MaxUint32 == 0 {
		to = from + 1<<32 // the third component is unbound
	}
	for i := range g {
		k := bits.RotateLeft64(uint64(g[i].P)<<32|uint64(g[i].O), rot)
		_, below := bits.Sub64(k, from, 0)
		lo += int(below)
		_, below = bits.Sub64(k, to, 0)
		hi += int(below)
	}
	if to == 0 {
		hi = len(g)
	}
	return lo, hi
}

// A subjectDir is the offset directory of a base store's subject groups:
// the r-th subject of the SPO run, in ID order, owns
// idx[SPO][off[r]:off[r+1]], and because SOP is also sorted by subject
// first, its groups sit at the same positions. A subject's rank r comes
// from a bitmap of the IDs present as subjects, with a running count per
// 64-ID block, so a subject-bound probe finds its group with two loads
// from small arrays instead of a binary search over the whole run
// (ARCHITECTURE.md, "The probe kernel"). The bitmap keeps the directory
// proportional to the subjects a run holds rather than to the dictionary,
// as a dense off[id] array would be.
//
// The directory is built on the first subject-bound lookup, once per set
// of base runs: overlays share their base's, a Commit or an open starts a
// fresh one. It covers the IDs the dictionary held at that moment.
type subjectDir struct {
	once   sync.Once
	blocks []dirBlock // present subject IDs, 64 per block; nil when unbuilt
	off    []uint32   // group bounds by subject rank, one past the last
}

type dirBlock struct {
	present uint64 // bit i: ID 64·w+i is a subject of the run
	rank    uint32 // present subjects with an ID below the block's first
}

// group returns subject s's group [lo, hi) in spo, the SPO run the
// directory belongs to, whose subjects are IDs of d; an absent subject
// gets the empty range where it would sort. A subject past the
// directory's end that is above the run's last subject — one minted after
// the build — gets the empty range at len(spo), which is exact for any
// sorted run. ok is false for any other subject past the end (spo is too
// long for 32-bit offsets, or a corrupt mapped run holds subjects above
// the dictionary): the caller searches the whole run.
func (sd *subjectDir) group(spo []IDTriple, d *dict.Dict, s dict.ID) (lo, hi int, ok bool) {
	sd.once.Do(func() { sd.build(spo, d) })
	w := int(s >> 6)
	if w >= len(sd.blocks) {
		if n := len(spo); n == 0 || s > spo[n-1].S {
			return n, n, true
		}
		return 0, 0, false
	}
	b := sd.blocks[w]
	bit := uint64(1) << (s & 63)
	r := int(b.rank) + bits.OnesCount64(b.present&(bit-1))
	if b.present&bit == 0 {
		return int(sd.off[r]), int(sd.off[r]), true
	}
	return int(sd.off[r]), int(sd.off[r+1]), true
}

// build fills the directory with two counting passes over spo. It reads
// the dictionary's length once (Len takes a lock). A subject above that
// length — only a corrupt mapped run holds one — is not counted, so every
// offset stays within len(spo) whatever the run holds.
func (sd *subjectDir) build(spo []IDTriple, d *dict.Dict) {
	if uint64(len(spo)) > math.MaxUint32 {
		return
	}
	n := d.Len()
	blocks := make([]dirBlock, n/64+1)
	for i := range spo {
		if s := spo[i].S; int(s) <= n {
			blocks[s>>6].present |= 1 << (s & 63)
		}
	}
	subjects := 0
	for w := range blocks {
		blocks[w].rank = uint32(subjects)
		subjects += bits.OnesCount64(blocks[w].present)
	}
	off := make([]uint32, subjects+1)
	for i := range spo {
		if s := spo[i].S; int(s) <= n {
			b := blocks[s>>6]
			off[int(b.rank)+bits.OnesCount64(b.present&(1<<(s&63)-1))+1]++
		}
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}
	sd.blocks, sd.off = blocks, off
}

// A packedKey is a sort key with its first two components packed into one
// word, so most comparisons are a single branch.
type packedKey struct {
	pk    uint64
	third dict.ID
}

func packPrefix(k [3]dict.ID) packedKey { return packedKey{uint64(k[0])<<32 | uint64(k[1]), k[2]} }

// packKey returns t's sort key, components in the order p lists: an
// indexed load from a local copy, not a switch per component.
func packKey(t *IDTriple, p [3]int) packedKey {
	c := [3]dict.ID{t.S, t.P, t.O}
	return packedKey{uint64(c[p[0]])<<32 | uint64(c[p[1]]), c[p[2]]}
}

func (a packedKey) below(b packedKey) bool {
	return a.pk < b.pk || (a.pk == b.pk && a.third < b.third)
}

// keyBelow reports whether t's sort key under p is below k.
func keyBelow(t *IDTriple, p [3]int, k packedKey) bool { return packKey(t, p).below(k) }

// lowerBound returns the first position in idx[i:j] whose sort key
// (components in the order p lists) is >= k, or j when there is none. An
// explicit loop, not a sort.Search closure: one runs per probe, so it
// must not allocate.
func lowerBound(idx []IDTriple, p [3]int, i, j int, k packedKey) int {
	for i < j {
		h := int(uint(i+j) >> 1)
		if keyBelow(&idx[h], p, k) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// gallop returns the first position at or after from whose sort key is
// >= k, probing at doubling distances before a binary search of the last
// gap, so the cost follows the length of the run, not of the index.
func gallop(idx []IDTriple, p [3]int, from int, k packedKey) int {
	for step := 1; ; step <<= 1 {
		probe := min(from+step-1, len(idx))
		if probe == len(idx) || !keyBelow(&idx[probe], p, k) {
			return lowerBound(idx, p, from, probe, k)
		}
		from = probe + 1
	}
}

// mergeRuns is the run-copy kernel behind overlay batch reads (Scan.Next,
// Match), delta updates and compaction: it appends the next n triples of (*run − *rem) ∪
// *add to out (fewer when the runs run out) and advances the three runs
// past what it consumed. All three must be sorted under p, with rem ⊆ run
// and add ∩ run = ∅ — the Delta invariants, which also hold for a delta
// run and its touches. It never steps one triple at a time through a
// stretch: the run up to the next remove or add key is found by galloping
// and copied with one append, and so is every stretch of add below the
// run's head.
func mergeRuns(out []IDTriple, n int, run, rem, add *[]IDTriple, p [3]int) []IDTriple {
	r, d, a := *run, *rem, *add
	for n > 0 && (len(r) > 0 || len(a) > 0) {
		if len(a) > 0 && (len(r) == 0 || keyBelow(&a[0], p, packKey(&r[0], p))) {
			k := len(a)
			if len(r) > 0 {
				k = gallop(a, p, 1, packKey(&r[0], p))
			}
			k = min(k, n)
			out = append(out, a[:k]...)
			a, n = a[k:], n-k
			continue
		}
		// The run's head is next: copy it up to the next remove or add
		// key, then drop a removed triple sitting there.
		stop := len(r)
		if len(d) > 0 || len(a) > 0 {
			var next packedKey
			if len(d) > 0 {
				next = packKey(&d[0], p)
			}
			if len(a) > 0 && (len(d) == 0 || keyBelow(&a[0], p, next)) {
				next = packKey(&a[0], p)
			}
			stop = gallop(r, p, 0, next)
		}
		k := min(stop, n)
		out = append(out, r[:k]...)
		r, n = r[k:], n-k
		if len(d) > 0 && len(r) > 0 && r[0] == d[0] {
			r, d = r[1:], d[1:]
		}
	}
	*run, *rem, *add = r, d, a
	return out
}

// applyRun returns (run − rem) ∪ add (see mergeRuns) as a fresh slice,
// or run itself when rem and add are both empty.
func applyRun(run, rem, add []IDTriple, o order) []IDTriple {
	if len(rem) == 0 && len(add) == 0 {
		return run
	}
	n := len(run) - len(rem) + len(add)
	return mergeRuns(make([]IDTriple, 0, n), n, &run, &rem, &add, orderPositions[o])
}

// prefixBounds extracts the bound prefix values of pat under order o,
// returning the component array and how many entries are meaningful.
func prefixBounds(o order, pat Pattern) ([3]dict.ID, int) {
	vals := [3]dict.ID{pat.S, pat.P, pat.O}
	var out [3]dict.ID
	n := 0
	for _, pos := range orderPositions[o] {
		if vals[pos] == dict.None {
			break
		}
		out[n] = vals[pos]
		n++
	}
	return out, n
}
