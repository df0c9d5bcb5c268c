package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddmin/internal/circuits"
	"bddmin/internal/logic"
	"bddmin/internal/problem"
	"bddmin/internal/route"
	"bddmin/internal/serve"
)

// serve-mix is the service path: a closed loop of serveClients clients →
// route.Router → two one-shard serve.Server backends, in process over
// loopback. The seeded request stream mixes first-seen instances (problem
// build, semantic hash, minimization and cache insert do the work) with
// Zipf-distributed repeats (the request-key cache, JSON and the router do
// the work). An item is one request.
//
// No measured traffic of the service exists, so the mix below is an
// assumption, not a model of real use: half cold and half repeated
// requests weigh the two paths the service has equally (its committed
// load record, 98.5% cache hits over a 15-instance corpus, exercises
// minimization hardly at all). README.md gives the reasoning.

const (
	serveClients = 2
	// serveStream is the stream length; a run that exhausts it ends early.
	serveStream = 40_000
	// serveNewFrac is the share of stream positions that carry a
	// first-seen instance.
	serveNewFrac = 0.5
	// Repeats draw instance k with probability ∝ (serveZipfV + k)^-serveZipfS
	// over the instances seen so far, skewed toward the earliest; the
	// offset spreads the hot set over a few dozen instances, so no single
	// instance's answer size sets the hit latency. Both values are
	// assumptions.
	serveZipfS = 1.1
	serveZipfV = 16
	// serveResultPrefix: result_nodes sums the cover sizes of the distinct
	// instances first seen in this many leading stream positions; a run
	// that stopped short completes them after the window, untimed.
	serveResultPrefix = 3000
	// serveWarmup requests on instances outside the stream start the
	// connections, the caches and the heap before anything is timed.
	serveWarmup = 200
	// servePass is the request count per-layer metrics are normalized to.
	servePass = 1000
)

// serveInst is one distinct instance of the stream.
type serveInst struct {
	req serve.MinimizeRequest
	// spec is the generated leaf notation (spec instances), the reference
	// for the truth-table check.
	spec string
}

// serveOutcome is what a client saw for one stream position. It keeps a
// digest of the cover rather than the answer, so the memory the benchmark
// holds does not grow with the number of requests completed.
type serveOutcome struct {
	status    int
	err       error
	ms        float64
	size      int
	digest    uint64
	cached    bool
	coalesced bool
	degraded  bool
	queueNs   int64
	runNs     int64
	id        uint64
	backend   string
}

type serveRun struct {
	// pool holds every distinct instance of the stream, generated in
	// set-up; stream maps each position to its pool index.
	pool   []serveInst
	stream []int
	warm   []serveInst

	backends []*serve.Server
	hsrv     []*httptest.Server
	router   *route.Router
	rsrv     *httptest.Server
	client   *serve.Client
	timer    *rtTimer

	next     atomic.Int64
	outcomes []serveOutcome

	buildS float64 // problem.Parse time of the setup's parse check
	lay    map[string]float64
}

// serveSpec draws a random leaf-notation spec of n variables: a third each
// onset and offset points, the rest don't cares.
func serveSpec(rng *rand.Rand, n int) string {
	b := make([]byte, 1<<n)
	for i := range b {
		switch r := rng.Intn(10); {
		case r < 3:
			b[i] = '1'
		case r < 6:
			b[i] = '0'
		default:
			b[i] = 'd'
		}
	}
	return string(b)
}

// servePLA draws a random espresso PLA (type fd) of n inputs.
func servePLA(rng *rand.Rand, n, outputs int) string {
	var sb strings.Builder
	rows := 16 + rng.Intn(17)
	fmt.Fprintf(&sb, ".i %d\n.o %d\n.p %d\n", n, outputs, rows)
	for r := 0; r < rows; r++ {
		for i := 0; i < n; i++ {
			sb.WriteByte("--01"[rng.Intn(4)])
		}
		sb.WriteByte(' ')
		for j := 0; j < outputs; j++ {
			switch x := rng.Intn(10); {
			case x < 5:
				sb.WriteByte('1')
			case x < 7:
				sb.WriteByte('-')
			default:
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(".e\n")
	return sb.String()
}

// serveNetlist draws a seeded control netlist, round-trips it through
// BLIF and returns the text with one of its gates.
func serveNetlist(rng *rand.Rand) (blif, gate string, err error) {
	net := circuits.RandomControlFSM("n", rng.Int63(), 4, 4, 2)
	var sb strings.Builder
	if err := logic.WriteBLIF(&sb, net); err != nil {
		return "", "", err
	}
	parsed, err := logic.ParseBLIFString(sb.String())
	if err != nil {
		return "", "", err
	}
	var gates []string
	for _, nd := range parsed.Nodes() {
		if nd.Type != logic.Input && nd.Type != logic.Const {
			gates = append(gates, nd.Name)
		}
	}
	if len(gates) == 0 {
		return "", "", fmt.Errorf("serve-mix: generated netlist has no gates")
	}
	return sb.String(), gates[rng.Intn(len(gates))], nil
}

// serveInstance builds pool instance idx. The kind cycles with the index
// so every stretch of ten instances holds six specs (8–12 variables, the
// width cycling too), two PLA outputs and two BLIF nodes, each of its own
// netlist: the mix, and so the work per instance, is the same for every
// seed; only the content is drawn from rng.
func serveInstance(idx int, rng *rand.Rand) (serveInst, error) {
	switch k := idx % 10; {
	case k < 6:
		spec := serveSpec(rng, 8+(idx/10+k)%5)
		return serveInst{req: serve.MinimizeRequest{Format: "spec", Input: spec}, spec: spec}, nil
	case k < 8:
		return serveInst{req: serve.MinimizeRequest{Format: "pla", Input: servePLA(rng, 8+(idx/10+k)%5, 3), Output: rng.Intn(3)}}, nil
	default:
		blif, gate, err := serveNetlist(rng)
		return serveInst{req: serve.MinimizeRequest{Format: "blif", Input: blif, Node: gate}}, err
	}
}

// serveStreamFor builds the seeded stream: position → pool index.
func serveStreamFor(rng *rand.Rand, length int) (stream []int, distinct int) {
	stream = make([]int, length)
	for i := range stream {
		if distinct == 0 || rng.Float64() < serveNewFrac {
			stream[i] = distinct
			distinct++
			continue
		}
		z := rand.NewZipf(rng, serveZipfS, serveZipfV, uint64(distinct-1))
		stream[i] = int(z.Uint64())
	}
	return stream, distinct
}

func setupServe(cfg config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	length := serveStream
	if cfg.scale < 1 {
		length = 400
	}
	r := &serveRun{}
	var distinct int
	r.stream, distinct = serveStreamFor(rng, length)
	r.pool = make([]serveInst, distinct)
	r.warm = make([]serveInst, serveWarmup)
	for i := range distinct + serveWarmup {
		in, err := serveInstance(i, rng)
		if err != nil {
			return nil, err
		}
		if i < distinct {
			r.pool[i] = in
		} else {
			r.warm[i-distinct] = in
		}
	}
	r.outcomes = make([]serveOutcome, len(r.stream))
	// The program parses every instance at the router and again at
	// admission; parsing the distinct result-prefix instances here checks
	// that the generator only emits valid input and times problem.Parse.
	start := time.Now()
	parsed := map[int]bool{}
	for _, idx := range r.stream[:min(serveResultPrefix, len(r.stream))] {
		if parsed[idx] {
			continue
		}
		parsed[idx] = true
		q := r.pool[idx].req
		if _, err := problem.Parse(problem.Kind(q.Format), q.Input, q.Output, q.Node); err != nil {
			return nil, fmt.Errorf("serve-mix: generated instance does not parse: %w", err)
		}
	}
	r.buildS = time.Since(start).Seconds()

	if err := r.start(); err != nil {
		r.close()
		return nil, err
	}
	// Warm-up on instances outside the stream.
	for _, in := range r.warm {
		if _, status, _, err := r.client.Minimize(context.Background(), in.req); err != nil || status != http.StatusOK {
			r.close()
			return nil, fmt.Errorf("serve-mix warm-up: status %d, %v", status, err)
		}
	}
	return r, nil
}

// start boots the two backends and the router.
func (r *serveRun) start() error {
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{Shards: 1, CacheEntries: 4096, CacheBytes: 64 << 20})
		s.Start()
		r.backends = append(r.backends, s)
		h := httptest.NewServer(s.Handler())
		r.hsrv = append(r.hsrv, h)
		urls = append(urls, h.URL)
	}
	r.timer = &rtTimer{base: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	r.router = route.New(route.Config{Backends: urls, HTTP: &http.Client{Transport: r.timer}})
	r.router.Start()
	r.rsrv = httptest.NewServer(r.router.Handler())
	r.client = &serve.Client{Base: r.rsrv.URL, HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}}
	return r.client.WaitHealthy(10 * time.Second)
}

func (r *serveRun) close() {
	if r.rsrv != nil {
		r.rsrv.Close()
		r.client.HTTP.Transport.(*http.Transport).CloseIdleConnections()
	}
	if r.router != nil {
		r.router.Close()
		r.timer.base.CloseIdleConnections()
	}
	for _, h := range r.hsrv {
		h.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range r.backends {
		_ = s.Drain(ctx) // every request has been answered; nothing is queued
	}
	r.rsrv, r.router, r.hsrv, r.backends = nil, nil, nil, nil
}

// do issues stream position pos and records its outcome.
func (r *serveRun) do(pos int, tr *tracer) {
	inst := &r.pool[r.stream[pos]]
	sp := -1
	if tr != nil {
		sp = tr.begin("client.request", int64(pos), -1)
	}
	start := time.Now()
	resp, status, _, err := r.client.Minimize(context.Background(), inst.req)
	el := time.Since(start)
	if tr != nil {
		tr.end(sp)
	}
	o := serveOutcome{status: status, err: err, ms: float64(el.Nanoseconds()) / 1e6}
	if resp != nil {
		o.size, o.cached, o.coalesced, o.degraded = resp.CoverSize, resp.Cached, resp.Coalesced, resp.Degraded
		o.queueNs, o.runNs, o.id, o.backend = resp.QueueNs, resp.RunNs, resp.ID, resp.Backend
		o.digest = coverDigest(resp.Cover)
	}
	r.outcomes[pos] = o
}

func (r *serveRun) run(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	var before []serve.MetricsSnapshot
	var routeBefore route.MetricsSnapshot
	if tr != nil {
		before = r.backendMetrics()
		routeBefore = r.router.Metrics()
		r.timer.start(tr)
	}
	mem := readMem()
	startPos := int(r.next.Load())
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				pos := int(r.next.Add(1)) - 1
				if pos >= len(r.stream) {
					return
				}
				r.do(pos, tr)
			}
		}()
	}
	wg.Wait()
	w.busy = time.Since(start).Seconds()
	w.mem = memSince(mem)
	end := min(int(r.next.Load()), len(r.stream))
	r.next.Store(int64(end))
	for pos := startPos; pos < end; pos++ {
		w.lat = append(w.lat, r.outcomes[pos].ms)
	}
	w.passes = float64(end-startPos) / servePass
	if tr != nil {
		rts := r.timer.stop()
		r.lay = r.serveLayers(startPos, end, rts, before, routeBefore)
	}
	return w, nil
}

func (r *serveRun) backendMetrics() []serve.MetricsSnapshot {
	var out []serve.MetricsSnapshot
	for _, h := range r.hsrv {
		c := &serve.Client{Base: h.URL}
		snap, err := c.Metrics(context.Background())
		if err != nil {
			snap = &serve.MetricsSnapshot{}
		}
		out = append(out, *snap)
	}
	return out
}
