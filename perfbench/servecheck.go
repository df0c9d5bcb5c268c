package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddmin/internal/bdd"
	"bddmin/internal/problem"
	"bddmin/internal/route"
	"bddmin/internal/serve"
)

// rtRecord is one timed router → backend round trip.
type rtRecord struct {
	backend string
	id      uint64
	ms      float64
	queueNs int64
	runNs   int64
}

// rtTimer is the router's transport. In traced windows it times every
// forwarded /minimize round trip, body included, and reads the response's
// id and server-side split so the trip can be joined to the client's view.
type rtTimer struct {
	base *http.Transport
	mu   sync.Mutex
	tr   *tracer
	recs []rtRecord
}

func (t *rtTimer) start(tr *tracer) {
	t.mu.Lock()
	t.tr, t.recs = tr, nil
	t.mu.Unlock()
}

func (t *rtTimer) stop() []rtRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.recs
	t.tr, t.recs = nil, nil
	return recs
}

func (t *rtTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	tr := t.tr
	t.mu.Unlock()
	if tr == nil || req.URL.Path != "/minimize" {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	res, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	res.Body = io.NopCloser(bytes.NewReader(body))
	var peek struct {
		ID      uint64 `json:"id"`
		QueueNs int64  `json:"queue_ns"`
		RunNs   int64  `json:"run_ns"`
	}
	_ = json.Unmarshal(body, &peek) // error bodies carry no id; the zero record still times the trip
	rec := rtRecord{backend: req.URL.Scheme + "://" + req.URL.Host, id: peek.ID,
		ms: float64(end.Sub(start).Nanoseconds()) / 1e6, queueNs: peek.QueueNs, runNs: peek.RunNs}
	tr.add("route.backend", int64(peek.ID), -1, start, end)
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
	return res, nil
}

// serveLayers derives the per-layer metrics of the traced window
// [startPos, end).
func (r *serveRun) serveLayers(startPos, end int, rts []rtRecord, before []serve.MetricsSnapshot, routeBefore route.MetricsSnapshot) map[string]float64 {
	n := float64(end - startPos)
	pass := n / servePass
	type key struct {
		backend string
		id      uint64
	}
	rtByKey := map[key]rtRecord{}
	perBackend := map[string]float64{}
	var backendMs, httpMs []float64
	for _, rec := range rts {
		rtByKey[key{rec.backend, rec.id}] = rec
		perBackend[rec.backend]++
		backendMs = append(backendMs, rec.ms)
		httpMs = append(httpMs, rec.ms-float64(rec.queueNs+rec.runNs)/1e6)
	}
	var hits, coalesced, rejected float64
	var hitMs, missMs, queueMs, runMs, hopMs []float64
	for pos := startPos; pos < end; pos++ {
		o := &r.outcomes[pos]
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
		if o.status != http.StatusOK {
			continue
		}
		if o.cached {
			hits++
			hitMs = append(hitMs, o.ms)
		} else {
			missMs = append(missMs, o.ms)
			queueMs = append(queueMs, float64(o.queueNs)/1e6)
			runMs = append(runMs, float64(o.runNs)/1e6)
		}
		if o.coalesced {
			coalesced++
		}
		if rec, ok := rtByKey[key{o.backend, o.id}]; ok {
			hopMs = append(hopMs, o.ms-rec.ms)
		}
	}
	maxShare := 0.0
	for _, c := range perBackend {
		maxShare = max(maxShare, c/float64(len(rts)))
	}
	after := r.backendMetrics()
	var osmBt, nodesMade float64
	for i := range after {
		for _, h := range after[i].Heuristics {
			if h.Name == "osm_bt" {
				osmBt += h.TotalNs
			}
		}
		for _, h := range before[i].Heuristics {
			if h.Name == "osm_bt" {
				osmBt -= h.TotalNs
			}
		}
		for j, sh := range after[i].Shards {
			nodesMade += float64(sh.NodesMade)
			if j < len(before[i].Shards) {
				nodesMade -= float64(before[i].Shards[j].NodesMade)
			}
		}
	}
	rc, rb := r.router.Metrics().Counters, routeBefore.Counters
	extra := float64(rc.Failovers-rb.Failovers) + float64(rc.Hedges-rb.Hedges) + float64(rc.Retried5xx-rb.Retried5xx)
	return map[string]float64{
		"bdd.nodes_made":       nodesMade / pass,
		"core.osm_bt_s":        osmBt / 1e9 / pass,
		"problem.build_s":      r.buildS,
		"serve.hit_frac":       hits / n,
		"serve.coalesced_frac": coalesced / n,
		"serve.hit_ms":         median(hitMs),
		"serve.miss_ms":        median(missMs),
		"serve.queue_ms":       median(queueMs),
		"serve.run_ms":         median(runMs),
		"serve.backend_ms":     median(backendMs),
		"serve.http_ms":        median(httpMs),
		"serve.rejected_429":   rejected / pass,
		"route.hop_ms":         median(hopMs),
		"route.extra_attempts": extra / pass,
		"route.max_share":      maxShare,
	}
}

func (r *serveRun) layers(w *window, tr *tracer) map[string]float64 { return r.lay }

// finish completes the result prefix if the window stopped short of it,
// then checks every answer. Each distinct instance the run reached is
// requested once more, untimed, and that answer is verified: reloaded on a
// client-side manager and checked against f·c ≤ g ≤ f + ¬c
// (serve.VerifyResponse) and, for spec instances, evaluated point by point
// against the generated leaf notation. Every answer of the run must carry
// the verified cover: the same size and the same cover digest.
func (r *serveRun) finish() (totals, error) {
	end := int(r.next.Load())
	prefix := min(serveResultPrefix, len(r.stream))
	for pos := end; pos < prefix; pos++ {
		r.do(pos, nil)
	}
	end = max(end, prefix)
	r.next.Store(int64(end))

	reached := make([]bool, len(r.pool))
	for _, idx := range r.stream[:end] {
		reached[idx] = true
	}
	refs := make([]serveRef, len(r.pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := int(next.Add(1)) - 1; idx < len(r.pool); idx = int(next.Add(1)) - 1 {
				if reached[idx] {
					refs[idx] = r.verify(&r.pool[idx])
				}
			}
		}()
	}
	wg.Wait()

	var bad []string
	for idx, ref := range refs {
		if ref.err != nil {
			bad = append(bad, fmt.Sprintf("instance %d: %v", idx, ref.err))
		}
	}
	var t totals
	for pos := 0; pos < end; pos++ {
		o := &r.outcomes[pos]
		ref := &refs[r.stream[pos]]
		t.attempted++
		switch {
		case o.err != nil || o.status != http.StatusOK || o.degraded:
			bad = append(bad, fmt.Sprintf("position %d: status %d degraded %v err %v", pos, o.status, o.degraded, o.err))
		case ref.err != nil:
		case o.size != ref.size || o.digest != ref.digest:
			bad = append(bad, fmt.Sprintf("position %d: cover size %d digest %x, verified answer %d %x", pos, o.size, o.digest, ref.size, ref.digest))
		default:
			t.ok++
		}
	}
	seen := map[int]bool{}
	for _, idx := range r.stream[:prefix] {
		if !seen[idx] {
			seen[idx] = true
			t.resultNodes += refs[idx].size
		}
	}
	for i, b := range bad {
		if i == 10 {
			fmt.Printf("serve-mix: %d more failures\n", len(bad)-10)
			break
		}
		fmt.Printf("serve-mix check failed: %s\n", b)
	}
	return t, nil
}

// serveRef is an instance's verified answer.
type serveRef struct {
	size   int
	digest uint64
	err    error
}

// verify requests an instance again and checks the answer.
func (r *serveRun) verify(in *serveInst) serveRef {
	q := in.req
	resp, status, _, err := r.client.Minimize(context.Background(), q)
	if err != nil {
		return serveRef{err: err}
	}
	if status != http.StatusOK || resp.Degraded {
		return serveRef{err: fmt.Errorf("status %d degraded %v", status, resp != nil && resp.Degraded)}
	}
	p, err := problem.Parse(problem.Kind(q.Format), q.Input, q.Output, q.Node)
	if err != nil {
		return serveRef{err: err}
	}
	if err := serve.VerifyResponse(p, resp); err != nil {
		return serveRef{err: err}
	}
	if in.spec != "" {
		if err := checkLeaves(in.spec, resp); err != nil {
			return serveRef{err: err}
		}
	}
	return serveRef{size: resp.CoverSize, digest: coverDigest(resp.Cover)}
}

// coverDigest is an FNV-1a digest of a serialized cover without its vars
// line: that line carries the serving manager's variable count, which
// depends on the manager's history, not on the cover.
func coverDigest(cover string) uint64 {
	h := uint64(14695981039346656037)
	for cover != "" {
		line, rest, _ := strings.Cut(cover, "\n")
		cover = rest
		if strings.HasPrefix(line, "vars ") {
			continue
		}
		for i := 0; i <= len(line); i++ {
			b := byte('\n')
			if i < len(line) {
				b = line[i]
			}
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	return h
}

// checkLeaves evaluates the serialized cover on every care point of the
// generated leaf notation, walking its nodes: leaf i is the assignment
// whose bits, most significant first, give variables 0..n-1.
func checkLeaves(spec string, resp *serve.MinimizeResponse) error {
	n := 0
	for 1<<n < len(spec) {
		n++
	}
	m := bdd.New(max(n, resp.CoverVars))
	roots, err := m.ReadFunctions(strings.NewReader(resp.Cover))
	if err != nil {
		return err
	}
	for i := 0; i < len(spec); i++ {
		if spec[i] == 'd' {
			continue
		}
		f := roots["g"]
		for f != bdd.One && f != bdd.Zero {
			hi, lo := m.Branches(f)
			if i>>(n-1-int(m.TopVar(f)))&1 == 1 {
				f = hi
			} else {
				f = lo
			}
		}
		if (f == bdd.One) != (spec[i] == '1') {
			return fmt.Errorf("cover disagrees with leaf %d of a %d-variable spec", i, n)
		}
	}
	return nil
}
