// Package core implements the diagnosis procedures compared by the paper
// "On the Relation Between Simulation-based and SAT-based Diagnosis"
// (Fey, Safarpour, Veneris, Drechsler; DATE 2006):
//
//   - PathTrace and BasicSimDiagnose (BSIM), Figure 1,
//   - SCDiagnose over set covering (COV), Figure 4,
//   - BasicSATDiagnose (BSAT), Figures 2 and 3,
//
// together with the effect-analysis oracle (Definition 3 checked by
// forced-value simulation), corrected-function extraction, the advanced
// variants discussed in Sections 2.3 and 4 (cone-restricted copies,
// fanout-free-region two-pass, test-set partitioning), and the hybrid
// approaches sketched in Section 6. Section 2.3's force-zero clauses
// have nothing to act on: a candidate gate is relaxed by its select
// line, so there is no free correction input to pin while it is off.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cnf"
)

// Correction is a set of candidate gates where changing the gate
// functions rectifies (or is proposed to rectify) the test-set — the
// C / C* / A of Definitions 2-4.
type Correction struct {
	Gates []int // sorted gate IDs
}

// NewCorrection copies and sorts the gate set.
func NewCorrection(gates []int) Correction {
	g := append([]int(nil), gates...)
	sort.Ints(g)
	return Correction{Gates: g}
}

// Size returns |C|.
func (c Correction) Size() int { return len(c.Gates) }

// Key returns a canonical map key for the correction.
func (c Correction) Key() string {
	parts := make([]string, len(c.Gates))
	for i, g := range c.Gates {
		parts[i] = fmt.Sprint(g)
	}
	return strings.Join(parts, ",")
}

// Contains reports whether gate g is part of the correction.
func (c Correction) Contains(g int) bool {
	i := sort.SearchInts(c.Gates, g)
	return i < len(c.Gates) && c.Gates[i] == g
}

// SubsetOf reports whether every gate of c is in o.
func (c Correction) SubsetOf(o Correction) bool {
	i := 0
	for _, g := range c.Gates {
		for i < len(o.Gates) && o.Gates[i] < g {
			i++
		}
		if i == len(o.Gates) || o.Gates[i] != g {
			return false
		}
	}
	return true
}

// String renders the correction as {g1,g2,...}.
func (c Correction) String() string { return "{" + c.Key() + "}" }

// Timings captures the three per-approach timing columns of Table 2:
// instance construction ("CNF"), time to the first solution ("One") and
// time to exhaust the solution space ("All").
type Timings struct {
	CNF time.Duration
	One time.Duration
	All time.Duration
}

// SolutionSet is an ordered list of corrections with completeness
// information (budgets can truncate enumeration).
type SolutionSet struct {
	Solutions []Correction
	Complete  bool
}

// Canonicalize sorts the solutions into the canonical order — by size,
// then lexicographically by gate IDs (cnf.LessSolution, the single
// definition of the order) — in place. Every merge point and every
// engine result passes through this, so diagnosis output is
// byte-identical regardless of worker or shard count.
func (ss *SolutionSet) Canonicalize() {
	sort.Slice(ss.Solutions, func(i, j int) bool {
		return cnf.LessSolution(ss.Solutions[i].Gates, ss.Solutions[j].Gates)
	})
}

// ContainsKey reports whether an identical correction is present.
func (ss *SolutionSet) ContainsKey(c Correction) bool {
	key := c.Key()
	for _, s := range ss.Solutions {
		if s.Key() == key {
			return true
		}
	}
	return false
}

// Keys returns the canonical keys of all solutions, sorted.
func (ss *SolutionSet) Keys() []string {
	keys := make([]string, len(ss.Solutions))
	for i, s := range ss.Solutions {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	return keys
}

// SameSolutions reports whether two solution sets contain exactly the
// same corrections (order-insensitive).
func SameSolutions(a, b *SolutionSet) bool {
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
