package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ClusterOptions configures the domain clustering.
type ClusterOptions struct {
	// Epsilon is the relative width of a cost band: two costs c1 <= c2 fall
	// in the same band when c2 <= c1·(1+Epsilon)·bandSlack. Bands are
	// geometric: band(c) = floor(log(c/c0) / log(1+Epsilon)). Zero means
	// DefaultEpsilon.
	Epsilon float64
	// MinClassSize drops (or merges, per MergeSmall) classes with fewer
	// members — the paper's "tune the workload generator such that it does
	// not generate parameters from the certain class Sj". Zero keeps all.
	MinClassSize int
	// MergeSmall, when true, merges an undersized class into the nearest
	// band of the same plan signature instead of dropping it.
	MergeSmall bool
}

// DefaultEpsilon is the default relative cost-band width. Within a band
// costs differ by at most a factor 2 — conservative for "same cost", yet
// wide enough that classes are populated.
const DefaultEpsilon = 1.0

// Class is one parameter class Si of the paper's formal problem: a maximal
// set of bindings sharing the optimal plan (condition a) and a cost band
// (condition b); distinct classes differ in signature or band (condition c,
// with cost bands standing in for the plan-identity part when shapes
// coincide — see the package comment).
type Class struct {
	Signature string  // canonical optimal-plan signature
	Band      int     // geometric cost-band index
	CostLo    float64 // minimum observed optimal cost in the class
	CostHi    float64 // maximum observed optimal cost in the class
	Points    []Point // member bindings with their analysis records
}

// Label renders a short class identifier like "Q4a", "Q4b" given a query
// name prefix; classes are labelled in increasing cost order.
func Label(prefix string, i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	if i < len(letters) {
		return fmt.Sprintf("%s%c", prefix, letters[i])
	}
	return fmt.Sprintf("%s_%d", prefix, i)
}

// Clustering is the result of Cluster: the classes, plus any points dropped
// by MinClassSize policy.
type Clustering struct {
	Classes []Class
	Dropped []Point
	Epsilon float64
}

// Cluster partitions the analyzed bindings into parameter classes.
// Classes are returned sorted by (mean cost, signature), so the cheap class
// of a bimodal query comes first (Q4a before Q4b).
func Cluster(a *Analysis, opts ClusterOptions) *Clustering {
	eps := opts.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	type key struct {
		sig  string
		band int
	}
	band := func(cost float64) int {
		if cost <= 0 {
			return -1 // empty-result plans: their own band
		}
		return int(math.Floor(math.Log(cost) / math.Log(1+eps)))
	}
	groups := map[key]*Class{}
	for _, pt := range a.Points {
		k := key{sig: pt.Signature, band: band(pt.Cost)}
		cl, ok := groups[k]
		if !ok {
			cl = &Class{Signature: pt.Signature, Band: k.band, CostLo: pt.Cost, CostHi: pt.Cost}
			groups[k] = cl
		}
		if pt.Cost < cl.CostLo {
			cl.CostLo = pt.Cost
		}
		if pt.Cost > cl.CostHi {
			cl.CostHi = pt.Cost
		}
		cl.Points = append(cl.Points, pt)
	}
	out := &Clustering{Epsilon: eps}
	var classes []*Class
	for _, cl := range groups {
		classes = append(classes, cl)
	}
	// Deterministic order before any merge policy runs (map iteration is
	// randomized).
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].Signature != classes[j].Signature {
			return classes[i].Signature < classes[j].Signature
		}
		return classes[i].Band < classes[j].Band
	})
	// Enforce MinClassSize.
	if opts.MinClassSize > 1 {
		var kept []*Class
		for _, cl := range classes {
			if len(cl.Points) >= opts.MinClassSize {
				kept = append(kept, cl)
				continue
			}
			if opts.MergeSmall {
				tgt := nearestSameSig(kept, cl)
				if tgt == nil {
					tgt = nearestSameSig(classes, cl) // may pick a later kept one
				}
				if tgt != nil && tgt != cl && len(tgt.Points) >= opts.MinClassSize {
					absorbClass(tgt, cl)
					continue
				}
			}
			out.Dropped = append(out.Dropped, cl.Points...)
		}
		classes = kept
	}
	sort.Slice(classes, func(i, j int) bool {
		mi, mj := meanCost(classes[i]), meanCost(classes[j])
		if mi != mj {
			return mi < mj
		}
		return classes[i].Signature < classes[j].Signature
	})
	for _, cl := range classes {
		out.Classes = append(out.Classes, *cl)
	}
	return out
}

func meanCost(c *Class) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range c.Points {
		s += p.Cost
	}
	return s / float64(len(c.Points))
}

func nearestSameSig(cands []*Class, cl *Class) *Class {
	var best *Class
	bestDist := math.MaxInt
	for _, c := range cands {
		if c == cl || c.Signature != cl.Signature {
			continue
		}
		d := c.Band - cl.Band
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// absorbClass moves src's points into dst and widens dst's cost range to
// cover src's.
func absorbClass(dst, src *Class) {
	dst.Points = append(dst.Points, src.Points...)
	if src.CostLo < dst.CostLo {
		dst.CostLo = src.CostLo
	}
	if src.CostHi > dst.CostHi {
		dst.CostHi = src.CostHi
	}
}

// Verify checks the paper's conditions over a clustering:
//
//	(a) all members of a class share one optimal-plan signature;
//	(b) all members' costs fit the class's (1+ε)-relative band;
//	(c) no two classes share both signature and band.
//
// It returns nil when all hold.
func (c *Clustering) Verify() error {
	type key struct {
		sig  string
		band int
	}
	seen := map[key]bool{}
	for i, cl := range c.Classes {
		k := key{cl.Signature, cl.Band}
		if seen[k] {
			return fmt.Errorf("core: condition (c) violated: duplicate class (sig=%s band=%d)", cl.Signature, cl.Band)
		}
		seen[k] = true
		for _, pt := range cl.Points {
			if pt.Signature != cl.Signature {
				return fmt.Errorf("core: condition (a) violated in class %d: %s vs %s", i, pt.Signature, cl.Signature)
			}
		}
		if cl.CostLo > 0 && cl.CostHi > cl.CostLo*(1+c.Epsilon)*(1+c.Epsilon) {
			return fmt.Errorf("core: condition (b) violated in class %d: costs [%g, %g] exceed band ε=%g",
				i, cl.CostLo, cl.CostHi, c.Epsilon)
		}
	}
	return nil
}

// Summary renders a human-readable clustering overview.
func (c *Clustering) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d classes (ε=%.2f, %d dropped points)\n", len(c.Classes), c.Epsilon, len(c.Dropped))
	for i, cl := range c.Classes {
		fmt.Fprintf(&b, "  class %-3s n=%-6d cost=[%.3g, %.3g] plan=%s\n",
			Label("S", i), len(cl.Points), cl.CostLo, cl.CostHi, cl.Signature)
	}
	return b.String()
}
