package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The benchmark's self-test: every workload at a tiny size, untraced and
// traced. Run from this directory with `go test ./...`.

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 1, seconds: 0.4, trace: trace, scale: 0.1,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
	res, _, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkMetrics asserts the result prints exactly the named metrics, each
// with its declared unit, a legal name and a finite value.
func checkMetrics(t *testing.T, workload string, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if !legalName.MatchString(m.Name) || !legalUnit.MatchString(got.Unit) || got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q (legal name and unit)", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSelf(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		t.Run(w.Name, func(t *testing.T) {
			a := tinyRun(t, w.Name, false)
			checkMetrics(t, w.Name, a, spec.EndToEnd)
			if v := a.Metrics["ok_frac"].Value; v != 1 {
				t.Errorf("ok_frac %v, want 1", v)
			}
			b := tinyRun(t, w.Name, false)
			if x, y := a.Metrics["result_nodes"].Value, b.Metrics["result_nodes"].Value; x != y || x <= 0 {
				t.Errorf("result_nodes %v then %v with the same seed", x, y)
			}
			checkMetrics(t, w.Name, tinyRun(t, w.Name, true), spec.PerLayer)
		})
	}
}
