package exec

import "testing"

// poisonBuffers makes every buffer a run gives back to the pool fill with a
// sentinel (dict.ID MaxUint32, selection index -1) for the rest of t, so a
// result that still points into a released buffer reads changed rows.
func poisonBuffers(t testing.TB) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}
