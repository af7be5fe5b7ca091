//go:build !race

package exec

import "sync"

// shelf keeps released buffers in a sync.Pool: per-P, lock-free on the hot
// path, and emptied by the garbage collector when buffers go unused for
// two cycles, so an idle server gives its pool memory back.
type shelf[T any] struct{ pool sync.Pool }

// get returns a box from the shelf, or a fresh one.
func (sh *shelf[T]) get() *[]T {
	if box, _ := sh.pool.Get().(*[]T); box != nil {
		return box
	}
	return newBox[T]()
}

// put returns a box to the shelf.
func (sh *shelf[T]) put(box *[]T) { sh.pool.Put(box) }
