//go:build race

package exec

import "sync"

// shelf, under the race detector, keeps released buffers on a locked
// stack. The race build's sync.Pool drops a random quarter of what is put
// into it, which would make a run's allocation count — asserted exactly by
// tests — random; the stack reuses buffers across runs and goroutines the
// same way, deterministically, so the detector still sees every hand-over.
type shelf[T any] struct {
	mu   sync.Mutex
	free []*[]T
}

// get returns a box from the shelf, or a fresh one.
func (sh *shelf[T]) get() *[]T {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := len(sh.free); n > 0 {
		box := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return box
	}
	return newBox[T]()
}

// put returns a box to the shelf.
func (sh *shelf[T]) put(box *[]T) {
	sh.mu.Lock()
	sh.free = append(sh.free, box)
	sh.mu.Unlock()
}
