package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bddmin/internal/obs"
	"bddmin/internal/problem"
)

// TestJobPanicIsReported: a panic inside a job (injected through the start
// hook) answers 500, is counted under "panics" in /metrics, and emits a
// "panic" serve event carrying the panic value and the stack of the
// panic site — for minimize and network jobs alike.
func TestJobPanicIsReported(t *testing.T) {
	events := &obs.Buffer{}
	var wire bytes.Buffer
	jl := obs.NewJSONL(&wire)
	s := New(Config{
		Shards: 1,
		Trace:  obs.Multi(events, jl),
		hookStart: func(shard int, id uint64) {
			panic("injected shard fault")
		},
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	c := &Client{Base: ts.URL, HTTP: ts.Client()}

	p := mustProblem(t, problem.KindSpec, testSpec, 0, "")
	if _, status, _, err := c.Minimize(context.Background(), RequestFor(p, "osm_bt")); err != nil {
		t.Fatal(err)
	} else if status != http.StatusInternalServerError {
		t.Fatalf("minimize: HTTP %d, want 500", status)
	}
	if got := s.metricsSnapshot().Counters; got.Panics != 1 || got.Failed != 1 {
		t.Fatalf("after one panicking minimize job: panics %d failed %d, want 1 and 1", got.Panics, got.Failed)
	}
	if _, status := postNetwork(t, ts.URL, NetworkRequest{Input: testNetBLIF}); status != http.StatusInternalServerError {
		t.Fatalf("optimize-network: HTTP %d, want 500", status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	if got := s.metricsSnapshot().Counters.Panics; got != 2 {
		t.Fatalf("panics = %d after a minimize and a network panic, want 2", got)
	}
	var panics []obs.ServeEvent
	for _, ev := range events.Events {
		if se, ok := ev.(obs.ServeEvent); ok && se.Phase == "panic" {
			panics = append(panics, se)
		}
	}
	if len(panics) != 2 {
		t.Fatalf("%d panic events, want 2", len(panics))
	}
	for _, ev := range panics {
		if ev.Reason != "injected shard fault" {
			t.Fatalf("panic event reason %q, want the panic value", ev.Reason)
		}
		if !strings.Contains(ev.Stack, "TestJobPanicIsReported") {
			t.Fatalf("panic event stack does not reach the panic site:\n%s", ev.Stack)
		}
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(wire.Bytes())); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if !bytes.Contains(wire.Bytes(), []byte(`"phase":"panic"`)) || !bytes.Contains(wire.Bytes(), []byte(`"stack":`)) {
		t.Fatal("JSONL trace lacks the panic event or its stack")
	}
}
