package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/circuits"
	"bddmin/internal/core"
	"bddmin/internal/logic"
	"bddmin/internal/network"
	"bddmin/internal/obs"
)

// netopt is the whole-network optimizer: network.Optimize on seeded
// control netlists round-tripped through BLIF. It runs many short-lived
// window managers, the CDC image → osm_bt → SOP lowering → re-verify loop
// per node, fanout rebuilds after each rewrite, and the final miter. An
// item is one internal-node visit; its latency is the optimizer's own
// per-node trace duration.

// netShape is one suite control shape (inputs and latches capped as the
// suite caps them).
type netShape struct {
	name                     string
	inputs, latches, outputs int
}

var netShapes = []netShape{
	{"s344", 9, 14, 5},
	{"s386", 7, 6, 3},
	{"s510", 14, 6, 3},
	{"s641", 14, 14, 5},
	{"s820", 14, 5, 2},
	{"s953", 14, 14, 5},
	{"s1238", 14, 14, 5},
	{"s1488", 8, 6, 3},
}

const (
	// netPerShape netlists are drawn per shape. netCandidates are
	// generated per slot and the one of median initial network.Cost is
	// kept, so the pass's input size moves little with the seed and no
	// outlier netlist dominates it.
	netPerShape   = 4
	netCandidates = 5
	// netSimVectors random (state, input) vectors check each result.
	netSimVectors = 64
)

type netRun struct {
	names []string
	blif  []string
	// orig are the parsed netlists; every pass optimizes a clone.
	orig   []*logic.Network
	parseS float64
	osmBt  core.Anytime
	rng    *rand.Rand

	next      int
	cost      []int // final cost of each netlist's first optimization
	costSeen  []bool
	attempted int
	ok        int
	bad       []string
	lay       netLayers
}

type netLayers struct {
	nodeS, miterS, osmBtS     float64
	visits, rewrites, skipped float64
	aborts, sweeps, made      float64
}

func netlistsFor(seed int64, scale float64) ([]string, []*logic.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	if scale < 1 {
		net := circuits.RandomControlFSM("small", rng.Int63(), 4, 4, 2)
		return []string{"small"}, []*logic.Network{net}, nil
	}
	var names []string
	var nets []*logic.Network
	for _, sh := range netShapes {
		for k := 0; k < netPerShape; k++ {
			name := fmt.Sprintf("%s.%d", sh.name, k)
			type cand struct {
				net  *logic.Network
				cost int
			}
			cands := make([]cand, netCandidates)
			for j := range cands {
				net := circuits.RandomControlFSM(name, rng.Int63(), sh.latches, sh.inputs, sh.outputs)
				cands[j] = cand{net, network.Cost(net)}
			}
			sort.SliceStable(cands, func(a, b int) bool { return cands[a].cost < cands[b].cost })
			names = append(names, name)
			nets = append(nets, cands[netCandidates/2].net)
		}
	}
	return names, nets, nil
}

func setupNetopt(cfg config) (instance, error) {
	names, nets, err := netlistsFor(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	osmBt, ok := core.ByName("osm_bt").(core.Anytime)
	if !ok {
		return nil, fmt.Errorf("netopt: osm_bt is not an anytime heuristic")
	}
	r := &netRun{names: names, osmBt: osmBt, rng: rand.New(rand.NewSource(cfg.seed ^ 0x5eed))}
	for _, net := range nets {
		var sb strings.Builder
		if err := logic.WriteBLIF(&sb, net); err != nil {
			return nil, fmt.Errorf("netopt: %w", err)
		}
		r.blif = append(r.blif, sb.String())
	}
	start := time.Now()
	for i, text := range r.blif {
		net, err := logic.ParseBLIFString(text)
		if err != nil {
			return nil, fmt.Errorf("netopt %s: %w", names[i], err)
		}
		r.orig = append(r.orig, net)
	}
	r.parseS = time.Since(start).Seconds()
	r.cost = make([]int, len(r.orig))
	r.costSeen = make([]bool, len(r.orig))
	// Warm-up on a fixed s386-shaped netlist, outside every count: the
	// same work for every seed, so setup_s is steady.
	if _, err := network.Optimize(circuits.RandomControlFSM("warm", 102, 6, 7, 3), network.Options{}); err != nil {
		return nil, fmt.Errorf("netopt warm-up: %w", err)
	}
	return r, nil
}

func (r *netRun) close() {}

// netTracer receives the optimizer's events: node durations are the item
// latencies; the gap between the last sweep and the miter event times the
// final cost and miter.
type netTracer struct {
	lat       []float64
	lastSweep time.Time
	nodeS     float64
	miterS    float64
	tr        *tracer
	item      int64
	parent    int
}

func (t *netTracer) Emit(ev obs.Event) {
	ne, ok := ev.(obs.NetworkEvent)
	if !ok {
		return
	}
	now := time.Now()
	switch ne.Phase {
	case "node":
		t.lat = append(t.lat, float64(ne.Duration.Nanoseconds())/1e6)
		t.nodeS += ne.Duration.Seconds()
		if t.tr != nil {
			t.tr.add("network.node", t.item, t.parent, now.Add(-ne.Duration), now)
		}
	case "sweep":
		t.lastSweep = now
	case "miter":
		t.miterS += now.Sub(t.lastSweep).Seconds()
		if t.tr != nil {
			t.tr.add("network.miter", t.item, t.parent, t.lastSweep, now)
		}
	}
}

// timedMin times the optimizer's heuristic calls in traced windows. The
// optimizer calls the heuristic through core.MinimizeAnytime, so the
// wrapper keeps the Anytime path of the wrapped osm_bt.
type timedMin struct {
	core.Anytime
	total *float64
}

func (h timedMin) MinimizeBudgeted(m *bdd.Manager, f, c bdd.Ref, b *bdd.Budget) (bdd.Ref, core.AbortInfo) {
	start := time.Now()
	g, info := h.Anytime.MinimizeBudgeted(m, f, c, b)
	*h.total += time.Since(start).Seconds()
	return g, info
}

func (r *netRun) run(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	r.lay = netLayers{}
	mem := readMem()
	start := time.Now()
	done := 0
	// The first pass always completes: result_nodes sums it.
	for r.next < len(r.orig) || time.Since(start) < d {
		i := r.next % len(r.orig)
		r.next++
		net := r.orig[i].Clone()
		nt := &netTracer{tr: tr, item: int64(i), parent: -1}
		opts := network.Options{Trace: nt}
		var sp int
		if tr != nil {
			opts.Heuristic = timedMin{r.osmBt, &r.lay.osmBtS}
			sp = tr.begin("network.optimize", int64(i), -1)
			nt.parent = sp
		}
		t0 := time.Now()
		res, err := network.Optimize(net, opts)
		w.busy += time.Since(t0).Seconds()
		if tr != nil {
			tr.end(sp)
		}
		good := err == nil && res.MiterOK
		if !good {
			r.bad = append(r.bad, fmt.Sprintf("%s: miter failed: %v", r.names[i], err))
		} else if msg := r.simulate(r.orig[i], net); msg != "" {
			good = false
			r.bad = append(r.bad, r.names[i]+": "+msg)
		}
		if !r.costSeen[i] {
			r.cost[i], r.costSeen[i] = res.FinalCost, true
		} else if r.cost[i] != res.FinalCost {
			good = false
			r.bad = append(r.bad, fmt.Sprintf("%s: final cost %d, first run %d", r.names[i], res.FinalCost, r.cost[i]))
		}
		w.lat = append(w.lat, nt.lat...)
		r.attempted += len(nt.lat)
		if good {
			r.ok += len(nt.lat)
		}
		l := &r.lay
		l.nodeS += nt.nodeS
		l.miterS += nt.miterS
		l.visits += float64(len(nt.lat))
		l.rewrites += float64(res.Rewrites)
		l.aborts += float64(res.Aborts)
		l.sweeps += float64(len(res.Sweeps))
		l.made += float64(res.NodesMade)
		for _, s := range res.Sweeps {
			l.skipped += float64(s.Skipped)
		}
		done++
	}
	w.passes = float64(done) / float64(len(r.orig))
	w.mem = memSince(mem)
	return w, nil
}

// simulate compares the optimized netlist with the original on seeded
// random (state, input) vectors with logic.StepState: every output and
// next-state value must agree.
func (r *netRun) simulate(orig, opt *logic.Network) string {
	if len(orig.Latches) != len(opt.Latches) || len(orig.Inputs) != len(opt.Inputs) {
		return "interface changed"
	}
	state := make([]bool, len(orig.Latches))
	in := make([]bool, len(orig.Inputs))
	for v := 0; v < netSimVectors; v++ {
		for i := range state {
			state[i] = r.rng.Intn(2) == 1
		}
		for i := range in {
			in[i] = r.rng.Intn(2) == 1
		}
		n1, o1 := logic.StepState(orig, state, in)
		n2, o2 := logic.StepState(opt, state, in)
		for i := range n1 {
			if n1[i] != n2[i] {
				return fmt.Sprintf("next state of latch %d differs on vector %d", i, v)
			}
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				return fmt.Sprintf("output %d differs on vector %d", i, v)
			}
		}
	}
	return ""
}

func (r *netRun) finish() (totals, error) {
	t := totals{attempted: r.attempted, ok: r.ok}
	for i, seen := range r.costSeen {
		if !seen {
			return totals{}, fmt.Errorf("netopt: netlist %s never completed", r.names[i])
		}
		t.resultNodes += r.cost[i]
	}
	for _, b := range r.bad {
		fmt.Printf("netopt check failed: %s\n", b)
	}
	return t, nil
}

func (r *netRun) layers(w *window, tr *tracer) map[string]float64 {
	l := r.lay
	perPass := func(x float64) float64 { return x / w.passes }
	out := map[string]float64{
		"bdd.nodes_made":        perPass(l.made),
		"core.osm_bt_s":         perPass(l.osmBtS),
		"network.node_s":        perPass(l.nodeS),
		"network.miter_s":       perPass(l.miterS),
		"network.sweep_other_s": perPass(w.busy - l.nodeS - l.miterS),
		"network.skipped":       perPass(l.skipped),
		"network.aborts":        perPass(l.aborts),
		"network.sweeps":        perPass(l.sweeps),
		"network.nodes_made":    perPass(l.made),
		"logic.parse_s":         r.parseS,
	}
	if l.visits > 0 {
		out["network.accept_frac"] = l.rewrites / l.visits
	}
	return out
}
