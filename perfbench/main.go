// Command perfbench is the repository benchmark. It drives bddmin's layers
// through their public functions on seeded workloads, checks every output
// against a reference that is not the code under test, and prints one JSON
// result line:
//
//	perfbench --workload paper-fsm|serve-mix|netopt --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half, and the result
// carries the per-layer metrics of the traced half plus the tracing
// overhead. README.md in this directory documents the workloads, the
// metrics and the layer → end-to-end map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, so one slow build (cold heap, page faults) does not move it.
const setupReps = 5

// config is one run's parameters. scale shrinks the inputs for the
// self-test; the benchmark proper always runs at scale 1.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	spans    string
}

// instance is one built workload: its inputs, plus any servers it started.
type instance interface {
	// run measures items for d. tr is nil in untraced windows.
	run(d time.Duration, tr *tracer) (*window, error)
	// finish runs the post-window output checks and reports the totals
	// over every window run so far.
	finish() (totals, error)
	// layers derives the per-layer metrics of a traced window.
	layers(w *window, tr *tracer) map[string]float64
	close()
}

// window is what one measurement interval produced.
type window struct {
	// lat holds one latency sample per item, in milliseconds.
	lat []float64
	// busy is the time the items took to complete, in seconds; items_per_s
	// is len(lat)/busy.
	busy float64
	// passes counts completed passes over the workload's fixed input set;
	// per-layer metrics are normalized to one pass.
	passes float64
	mem    memDelta
}

// totals are the post-check counts over every window of a run.
type totals struct {
	attempted, ok int
	resultNodes   int
}

type workloadDef struct {
	name  string
	setup func(cfg config) (instance, error)
}

var workloads = []workloadDef{
	{"paper-fsm", setupFSM},
	{"serve-mix", setupServe},
	{"netopt", setupNetopt},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: paper-fsm, serve-mix or netopt")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "traced runs write their spans here (default .bench_build/spans/<workload>.jsonl)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", cfg.workload+".jsonl")
	}
	res, meta, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
}

// run builds the workload setupReps times, measures, checks and assembles
// the result line plus the run metadata.
func run(cfg config) (*result, map[string]any, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		in, err := def.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	// Set-up garbage is returned to the OS so peak_rss_mb measures the
	// window alone.
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS()
	steal0 := cpuTicks()
	measured, plain, tr, err := measure(inst, cfg.trace, d)
	steal1 := cpuTicks()
	peakRSS := rss.end()
	if err != nil {
		return nil, nil, err
	}
	tot, err := inst.finish()
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Correct:   tot.ok == tot.attempted && tot.attempted > 0,
		Attempted: tot.attempted,
		Failed:    tot.attempted - tot.ok,
		Metrics:   map[string]metric{},
	}
	tailP, tailBeyond := tailPercentile(len(measured.lat))
	meta := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"machine":     fingerprint(),
		"samples":     len(measured.lat),
		"passes":      measured.passes,
		"tail_pct":    tailP * 100,
		"tail_beyond": tailBeyond,
		"setup_reps":  setups,
		"steal_frac":  steal1.stealSince(steal0),
	}
	if !cfg.trace {
		sorted := append([]float64(nil), measured.lat...)
		sort.Float64s(sorted)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["items_per_s"] = metric{float64(len(measured.lat)) / measured.busy, "1/s"}
		res.Metrics["p50_ms"] = metric{quantile(sorted, 0.5), "ms"}
		res.Metrics["tail_ms"] = metric{quantile(sorted, tailP), "ms"}
		res.Metrics["ok_frac"] = metric{float64(tot.ok) / float64(tot.attempted), "frac"}
		res.Metrics["result_nodes"] = metric{float64(tot.resultNodes), "nodes"}
		res.Metrics["peak_rss_mb"] = metric{peakRSS, "MB"}
		return res, meta, nil
	}
	layer := inst.layers(measured, tr)
	layer["go.gc_cycles"] = measured.mem.gcCycles / measured.passes
	layer["go.alloc_mb"] = measured.mem.allocMB / measured.passes
	layer["go.gc_pause_ms"] = measured.mem.pauseMs / measured.passes
	ipsPlain := float64(len(plain.lat)) / plain.busy
	ipsTraced := float64(len(measured.lat)) / measured.busy
	layer["trace.overhead_frac"] = 1 - ipsTraced/ipsPlain
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{layer[def.name], def.unit}
	}
	meta["untraced_items_per_s"] = ipsPlain
	meta["traced_items_per_s"] = ipsTraced
	if err := tr.write(cfg.spans); err != nil {
		return nil, nil, err
	}
	meta["spans"] = cfg.spans
	return res, meta, nil
}

// measure runs the window: untraced, or an untraced half (plain) followed
// by a traced half.
func measure(inst instance, trace bool, d time.Duration) (measured, plain *window, tr *tracer, err error) {
	if !trace {
		measured, err = inst.run(d, nil)
		return measured, nil, nil, err
	}
	if plain, err = inst.run(d/2, nil); err != nil {
		return nil, nil, nil, err
	}
	tr = newTracer()
	measured, err = inst.run(d/2, tr)
	return measured, plain, tr, err
}

// perLayer lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. A metric a workload never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"bdd.nodes_made", "nodes/pass"},
	{"bdd.cache_hit_frac", "frac"},
	{"bdd.gc_runs", "count/pass"},
	{"bdd.peak_live_nodes", "nodes"},
	{"core.opt_lv_s", "s/pass"},
	{"core.sibling_s", "s/pass"},
	{"core.osm_bt_s", "s/pass"},
	{"harness.bound_s", "s/pass"},
	{"harness.filtered_frac", "frac"},
	{"fsm.traverse_s", "s/pass"},
	{"fsm.iterations", "count/pass"},
	{"fsm.peak_frontier_nodes", "nodes/pass"},
	{"network.node_s", "s/pass"},
	{"network.sweep_other_s", "s/pass"},
	{"network.miter_s", "s/pass"},
	{"network.accept_frac", "frac"},
	{"network.skipped", "count/pass"},
	{"network.aborts", "count/pass"},
	{"network.sweeps", "count/pass"},
	{"network.nodes_made", "nodes/pass"},
	{"logic.parse_s", "s"},
	{"problem.build_s", "s"},
	{"serve.hit_frac", "frac"},
	{"serve.coalesced_frac", "frac"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.backend_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.rejected_429", "count/pass"},
	{"route.hop_ms", "ms"},
	{"route.extra_attempts", "count/pass"},
	{"route.max_share", "frac"},
	{"go.gc_cycles", "count/pass"},
	{"go.alloc_mb", "MB/pass"},
	{"go.gc_pause_ms", "ms/pass"},
	{"trace.overhead_frac", "frac"},
}

// tailLadder is the set of percentiles tail_ms may report. It stops at
// p99.5: a 20 s run of any workload has several thousand samples, so every
// run of a workload lands on the same step (p99.9 would flip in and out
// around 10,000 samples).
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995}

// tailPercentile picks the highest ladder percentile with at least ten
// samples beyond it, and returns it with that count.
func tailPercentile(n int) (float64, int) {
	best, beyond := tailLadder[0], n-int(math.Ceil(tailLadder[0]*float64(n)))
	for _, p := range tailLadder {
		if b := n - int(math.Ceil(p*float64(n))); b >= 10 {
			best, beyond = p, b
		}
	}
	return best, beyond
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median is 0 for no values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// memDelta is the Go runtime's GC activity over one window.
type memDelta struct {
	gcCycles, allocMB, pauseMs float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		gcCycles: float64(after.NumGC - before.NumGC),
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		pauseMs:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// rssSampler samples the resident set every 20 ms while it runs.
// peak_rss_mb is the 95th percentile of the samples: the level the run
// holds at its busiest, without the single-sample spikes that depend on
// when the Go collector happens to run.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), samples: []float64{rssMB()}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.samples = append(s.samples, rssMB())
			}
		}
	}()
	return s
}

// end stops the sampler and returns the 95th percentile in MB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	<-s.done
	sort.Float64s(s.samples)
	return quantile(s.samples, 0.95)
}

// rssMB reads the process's resident set (VmRSS). Where /proc is missing
// it falls back to the memory the Go runtime obtained from the OS.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(readMem().Sys) / (1 << 20)
}

// ticks are the machine's CPU time counters from /proc/stat.
type ticks struct{ total, steal float64 }

// cpuTicks reads the aggregate cpu line; zero where /proc is missing.
func cpuTicks() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t ticks
	for i, f := range strings.Fields(line)[1:] {
		var v float64
		fmt.Sscan(f, &v)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of the machine's CPU time the hypervisor took
// from it since before: a run measured while neighbours were busy shows
// it here.
func (t ticks) stealSince(before ticks) float64 {
	if t.total <= before.total {
		return 0
	}
	return (t.steal - before.steal) / (t.total - before.total)
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
