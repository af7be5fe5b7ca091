package plan

import (
	"sort"
	"strings"

	"repro/internal/sparql"
)

// BindingSignature returns a canonical string identity for a parameter
// binding: the parameter names in sorted order, each with its term in
// N-Triples syntax. Two bindings have equal signatures iff they substitute
// the same terms for the same parameters — the binding-side analogue of
// Node.Signature's plan identity.
func BindingSignature(b sparql.Binding) string {
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

// CacheKey is the plan-cache key of one (template, binding) execution:
// the canonical template text joined with the binding's signature. Against
// an immutable store, equal keys compile to identical Compiled queries and
// optimize to identical plans, so cached entries can be reused without
// re-running DPsub.
func CacheKey(templateText string, b sparql.Binding) string {
	return templateText + "\x00" + BindingSignature(b)
}
