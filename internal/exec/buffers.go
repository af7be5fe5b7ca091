package exec

import (
	"slices"

	"repro/internal/dict"
	"repro/internal/sparql"
)

// This file implements the engine's column-buffer pool. Every query builds
// a fresh operator tree, so a per-operator buffer would start empty on
// every request and grow by append to its working size; the pool instead
// hands each run memory an earlier run already grew. An executor takes a
// buffer the first time an operator needs one and records where the
// operator keeps it; RunCtx gives every recorded buffer back once run has
// copied the result rows out — on success, error and cancellation alike.
//
// Ownership follows the operator contract: a batch is valid until its
// producer's next next() call, a relation until its run ends. Result rows
// never come from the pool — they escape into Result.

// maxPooledCap is the largest capacity, in elements, a released buffer may
// have and still go back into the pool; bigger ones are left to the
// garbage collector, so one huge query cannot pin its memory for the
// process's lifetime. 2^17 IDs (512 KiB) keeps the drained relations and
// join tables of BSBM's generic product types on the 10 000-product
// fixture pooled; at 2^16 most of them were dropped and regrown.
const maxPooledCap = 1 << 17

// A shelf is the process-wide pool of one buffer element type (shelf.go;
// shelf_race.go under the race detector). Buffers travel in boxes so that
// putting one back does not allocate a slice header, and every buffer on a
// shelf has capacity between batchSize and maxPooledCap.
var (
	idShelf  shelf[dict.ID]  // column buffers
	selShelf shelf[int32]    // selection vectors, permutations, hash chains
	keyShelf shelf[orderKey] // decoded ORDER BY keys
)

// loan is one buffer an executor took: slot is where its holder keeps it,
// so the buffer's final — possibly grown — value is what goes back, and box
// is the carrier it came out of the pool in.
type loan[T any] struct{ slot, box *[]T }

// loans is an executor's record of the buffers it holds.
type loans[T any] []loan[T]

// newBox returns a box holding an empty buffer of capacity batchSize, for
// a shelf that has none to give.
func newBox[T any]() *[]T {
	b := make([]T, 0, batchSize)
	return &b
}

// take puts an empty pooled buffer with capacity at least batchSize into
// *slot and records it. The slot must stay where it is until the run ends.
func (ls *loans[T]) take(sh *shelf[T], slot *[]T) {
	box := sh.get()
	*slot = (*box)[:0]
	*ls = append(*ls, loan[T]{slot: slot, box: box})
}

// scratch returns a pooled buffer of length n that its caller never grows:
// the box itself is the slot.
func (ls *loans[T]) scratch(sh *shelf[T], n int) []T {
	box := sh.get()
	*box = slices.Grow((*box)[:0], n)[:n]
	*ls = append(*ls, loan[T]{slot: box, box: box})
	return *box
}

// release returns every recorded buffer to the shelf, dropping the ones
// that outgrew maxPooledCap, and empties the record.
func (ls *loans[T]) release(sh *shelf[T], poison T) {
	for _, l := range *ls {
		b := *l.slot
		if cap(b) > maxPooledCap {
			continue
		}
		if poisonReleased {
			b = b[:cap(b)]
			for i := range b {
				b[i] = poison
			}
		}
		*l.box = b[:0]
		sh.put(l.box)
	}
	*ls = (*ls)[:0]
}

// poisonReleased makes release overwrite every buffer it returns with a
// sentinel, so a batch or relation read after its run ended shows up as
// changed rows. Only tests set it (export_test.go).
var poisonReleased bool

// col puts an empty pooled ID column into *slot.
func (ex *executor) col(slot *[]dict.ID) { ex.ids.take(&idShelf, slot) }

// sel puts an empty pooled selection vector into *slot.
func (ex *executor) sel(slot *[]int32) { ex.sels.take(&selShelf, slot) }

// int32s returns a pooled []int32 of length n (contents undefined) that
// lives until the run ends.
func (ex *executor) int32s(n int) []int32 { return ex.sels.scratch(&selShelf, n) }

// newRelation returns an empty relation over vars whose columns come from
// the pool.
func (ex *executor) newRelation(vars []sparql.Var) *colRelation {
	rel := &colRelation{vars: vars, cols: make([][]dict.ID, len(vars))}
	for j := range rel.cols {
		ex.col(&rel.cols[j])
	}
	return rel
}

// release returns every buffer the run holds to the pool.
func (ex *executor) release() {
	ex.ids.release(&idShelf, dict.ID(^uint32(0)))
	ex.sels.release(&selShelf, -1)
	ex.keys.release(&keyShelf, orderKey{})
}
