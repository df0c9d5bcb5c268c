package core

import (
	"errors"
	"fmt"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/obs"
)

// Anytime minimization: budgeted drivers that degrade gracefully.
//
// Every driver below runs its transformation steps under an attached
// bdd.Budget and, when a step aborts, rolls back to the best intermediate
// cover that was already verified valid. The rollback is sound because each
// completed step of the sibling/level/schedule pipelines produces an
// i-cover of its input ISF (Definition 6 of the paper): any cover of the
// output covers the input, so the ISF held *before* the failing step is a
// valid state to resume from, and its function part — or, ultimately, f
// itself — is a valid cover of the original [f, c]. The final
// compare-against-f safeguard (the trick Proposition 6 legitimizes) also
// guarantees the degraded result never exceeds |f|.
//
// After an abort the manager is left consistent: the kernels raise budget
// aborts before mutating, the drivers add no protections, and the computed
// caches are flushed so no entry from the unwound recursion survives into
// follow-up work. Partial results are ordinary garbage for the next GC.

// AbortInfo describes how a budgeted minimization run ended.
type AbortInfo struct {
	// Aborted is true when a budget limit stopped the run early and the
	// returned cover is a degraded (but valid) intermediate result.
	Aborted bool
	// Err is the underlying *bdd.AbortError (nil when Aborted is false).
	Err error
	// Reason is the bdd.AbortReason string: "live-nodes", "nodes-made",
	// "deadline", "context" or "fault".
	Reason string
	// Phase names the pipeline step that was interrupted, e.g. "level 12"
	// or "window 0-3 sib_tsm".
	Phase string
	// BestSize is the node count of the returned cover.
	BestSize int
}

// newAbortInfo builds an AbortInfo from a budget abort error.
func newAbortInfo(err error, phase string) AbortInfo {
	info := AbortInfo{Aborted: true, Err: err, Phase: phase}
	var a *bdd.AbortError
	if errors.As(err, &a) {
		info.Reason = string(a.Reason)
	}
	return info
}

// Anytime is implemented by minimizers that can run under a budget and
// return a valid degraded cover when it trips. MinimizeBudgeted attaches b
// for the duration of the call (a nil b inherits the budget already
// attached to the manager, letting nested drivers share an outer budget)
// and never returns a cover larger than |f|.
type Anytime interface {
	Minimizer
	MinimizeBudgeted(m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, AbortInfo)
}

// MinimizeAnytime runs h under budget b, degrading to a valid cover on
// abort. Minimizers implementing Anytime use their step-level rollback;
// any other Minimizer is wrapped whole-run, falling back to f itself when
// the budget trips. The result never exceeds |f|.
func MinimizeAnytime(h Minimizer, m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, AbortInfo) {
	if a, ok := h.(Anytime); ok {
		return a.MinimizeBudgeted(m, f, c, b)
	}
	best := f
	err := m.RunBudgeted(b, func() {
		if g := h.Minimize(m, f, c); m.Size(g) < m.Size(best) {
			best = g
		}
	})
	var info AbortInfo
	if err != nil {
		info = newAbortInfo(err, h.Name())
		m.FlushCaches()
	}
	info.BestSize = m.Size(best)
	return best, info
}

// MinimizeBudgeted implements Anytime. The sibling traversal is a single
// top-down pass with no intermediate i-cover to checkpoint, so on abort it
// degrades directly to f (always a valid cover of [f, c]).
func (h *SiblingHeuristic) MinimizeBudgeted(m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic(fmt.Sprintf("core: %s called with empty care set", h.name))
	}
	best := f
	err := m.RunBudgeted(b, func() {
		if g := h.Minimize(m, f, c); m.Size(g) < m.Size(best) {
			best = g
		}
	})
	var info AbortInfo
	if err != nil {
		info = newAbortInfo(err, h.name)
		m.FlushCaches()
	}
	info.BestSize = m.Size(best)
	if info.Aborted && h.Trace != nil {
		h.Trace.Emit(obs.AbortEvent{Name: h.name, Reason: info.Reason, Phase: info.Phase, BestSize: info.BestSize})
	}
	return best, info
}

// MinimizeBudgeted implements Anytime. Levels are the checkpoint boundary:
// each completed round yields an i-cover of the previous ISF, so on abort
// the driver keeps the ISF of the last completed level, discards the
// interrupted round, and applies the compare-against-f safeguard (level
// matching can grow intermediates, per Proposition 6).
func (o *OptLv) MinimizeBudgeted(m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic("core: opt_lv called with empty care set")
	}
	if b != nil {
		prev := m.SetBudget(b)
		defer m.SetBudget(prev)
	}
	cr := TSM
	if o.UseOSM {
		cr = OSM
	}
	cur := ISF{f, c}
	sc := lvScratchPool.Get().(*lvScratch)
	defer lvScratchPool.Put(sc)
	var info AbortInfo
	for i := 0; i < m.NumVars(); i++ {
		if cur.C == bdd.One || cur.F.IsConst() {
			break
		}
		start := time.Now()
		var next ISF
		var stats LevelMatchStats
		err := m.Budgeted(func() {
			next, stats = minimizeAtLevel(m, cur, bdd.Var(i), cr, o.Limit, sc)
		})
		if err != nil {
			stats.Aborted = true
			info = newAbortInfo(err, fmt.Sprintf("level %d", i))
		} else {
			cur = next
		}
		if o.Trace != nil {
			o.Trace.Emit(levelMatchEvent(i, cr, stats, time.Since(start)))
		}
		if info.Aborted {
			break
		}
	}
	best := cur.F
	if m.Size(best) > m.Size(f) {
		best = f
	}
	info.BestSize = m.Size(best)
	if info.Aborted {
		m.FlushCaches()
		if o.Trace != nil {
			o.Trace.Emit(obs.AbortEvent{Name: o.Name(), Reason: info.Reason, Phase: info.Phase, BestSize: info.BestSize})
		}
	}
	return best, info
}

// MinimizeBudgeted implements Anytime. Every schedule step (windowed
// sibling matching, per-level matching, the final constrain) transforms the
// current ISF into an i-cover of it, so the ISF before the failing step is
// the rollback point; its function part is a valid cover of the original
// [f, c], clamped to f by the comparison safeguard.
func (s *Scheduler) MinimizeBudgeted(m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic("core: scheduler called with empty care set")
	}
	if b != nil {
		prev := m.SetBudget(b)
		defer m.SetBudget(prev)
	}
	cur := ISF{f, c}
	var info AbortInfo
	// step runs one schedule transformation under the budget, committing
	// its i-cover on success and recording the rollback point on abort.
	step := func(phase string, fn func() ISF) bool {
		var out ISF
		if err := m.Budgeted(func() { out = fn() }); err != nil {
			info = newAbortInfo(err, phase)
			return false
		}
		cur = out
		return true
	}
	w := s.window()
	stop := s.stop()
	n := m.NumVars()
	done := false
windows:
	for lo := 0; lo < n && !done; lo += w {
		if cur.C == bdd.One || cur.F.IsConst() {
			break
		}
		if n-lo <= stop {
			break
		}
		hi := lo + w - 1
		if hi >= n {
			hi = n - 1
		}
		s.emitWindow(m, "open", lo, hi, cur)
		if !step(fmt.Sprintf("window %d-%d sib_osm", lo, hi), func() ISF { return s.sibStep(m, cur, OSM, true, lo, hi) }) {
			break
		}
		if !step(fmt.Sprintf("window %d-%d sib_tsm", lo, hi), func() ISF { return s.sibStep(m, cur, TSM, false, lo, hi) }) {
			break
		}
		if !s.SkipLevelMatching {
			for i := lo; i <= hi && i < n; i++ {
				if cur.C == bdd.One || cur.F.IsConst() {
					done = true
					break
				}
				if !step(fmt.Sprintf("level %d osm", i), func() ISF { return s.lvStep(m, cur, OSM, i) }) {
					break windows
				}
				if !step(fmt.Sprintf("level %d tsm", i), func() ISF { return s.lvStep(m, cur, TSM, i) }) {
					break windows
				}
			}
		}
		s.emitWindow(m, "close", lo, hi, cur)
	}
	if !info.Aborted && cur.C != bdd.One && cur.C != bdd.Zero && !cur.F.IsConst() {
		step("final constrain", func() ISF { return ISF{F: m.Constrain(cur.F, cur.C), C: bdd.One} })
	}
	best := cur.F
	if m.Size(best) > m.Size(f) {
		best = f
	}
	info.BestSize = m.Size(best)
	if info.Aborted {
		m.FlushCaches()
		if s.Trace != nil {
			s.Trace.Emit(obs.AbortEvent{Name: s.Name(), Reason: info.Reason, Phase: info.Phase, BestSize: info.BestSize})
		}
	}
	return best, info
}

// MinimizeBudgeted implements Anytime. Robust runs its sub-heuristics as
// anytime drivers sharing the attached budget; when the sibling pass
// aborts, the level pass is skipped (a crossed limit stays crossed), and
// the smallest valid result seen — at worst f itself — is returned.
func (r *Robust) MinimizeBudgeted(m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, AbortInfo) {
	if c == bdd.Zero {
		panic("core: robust called with empty care set")
	}
	if b != nil {
		prev := m.SetBudget(b)
		defer m.SetBudget(prev)
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
	var info AbortInfo
	g, sibInfo := NewSiblingHeuristic(OSM, true, true).MinimizeBudgeted(m, f, c, nil)
	consider(g)
	if sibInfo.Aborted {
		info = sibInfo
	} else if m.Density(c) > threshold {
		lv := &OptLv{Limit: r.Limit}
		g, lvInfo := lv.MinimizeBudgeted(m, f, c, nil)
		consider(g)
		if lvInfo.Aborted {
			info = lvInfo
		}
	}
	info.BestSize = m.Size(best)
	return best, info
}
