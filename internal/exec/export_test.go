package exec

import (
	"slices"
	"testing"

	"repro/internal/sparql"
)

// joinSchema is a join's output schema as the lowering fixes it: l's
// variables, then r's new ones. Tests that run a join kernel without a
// plan pass it.
func joinSchema(l, r []sparql.Var) []sparql.Var {
	out := slices.Clone(l)
	for _, v := range r {
		if !slices.Contains(l, v) {
			out = append(out, v)
		}
	}
	return out
}

// poisonBuffers makes every buffer a run gives back to the pool fill with a
// sentinel (dict.ID MaxUint32, selection index -1) for the rest of t, so a
// result that still points into a released buffer reads changed rows.
func poisonBuffers(t testing.TB) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}
