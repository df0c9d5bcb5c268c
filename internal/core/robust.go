package core

import "bddmin/internal/bdd"

// Robust is the combined heuristic the paper's conclusion calls for: "a
// heuristic that combines the strong points of the level-match and
// sibling-match heuristics would be robust and would yield good results".
//
// The experiments show a clean split: when the care onset is small,
// matches are plentiful and the cheap no-new-vars sibling matchers win
// (osm_bt led Table 3 overall); when the care onset is large, matches are
// scarce, extra search is rewarded, and opt_lv is never beaten. Robust
// therefore always runs the sibling matcher, additionally runs level
// matching when the care onset exceeds OnsetThreshold (default 0.95), and
// returns the smallest result — with f itself as the final safeguard, so
// the result never exceeds |f| (the comparison trick legitimized after
// Proposition 6).
type Robust struct {
	// OnsetThreshold is the care-onset density above which level matching
	// is also tried (0 means the 0.95 default; negative means always).
	OnsetThreshold float64
	// Limit bounds the level matcher's collected set size (0 = unlimited).
	Limit int
}

// Name returns "robust".
func (r *Robust) Name() string { return "robust" }

// Minimize returns the best cover found by the selected strategies, never
// larger than f.
func (r *Robust) Minimize(m *bdd.Manager, f, c bdd.Ref) bdd.Ref {
	if c == bdd.Zero {
		panic("core: robust called with empty care set")
	}
	threshold := r.OnsetThreshold
	if threshold == 0 {
		threshold = 0.95
	}
	best := f
	consider := func(g bdd.Ref) {
		if m.Size(g) < m.Size(best) {
			best = g
		}
	}
	consider(NewSiblingHeuristic(OSM, true, true).Minimize(m, f, c))
	if m.Density(c) > threshold {
		lv := &OptLv{Limit: r.Limit}
		consider(lv.Minimize(m, f, c))
	}
	return best
}
