package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// runTiny runs a workload at tiny size for half a second.
func runTiny(t *testing.T, workload string, traced, tamper bool) (*result, string) {
	t.Helper()
	cfg := config{workload: workload, seed: 1, seconds: 0.5, trace: traced, size: "tiny",
		repo: ".", workdir: t.TempDir(), commit: "test", tamper: tamper}
	var log bytes.Buffer
	res, err := run(cfg, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	return res, log.String()
}

func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, log := runTiny(t, w, traced, false)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gate: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case !traced && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestTamperedAnswerTripsGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, log := runTiny(t, w, false, true)
			if res.Correct || res.Failed != 1 {
				t.Fatalf("tampered run: correct=%v failed=%d, want correct=false failed=1\n%s", res.Correct, res.Failed, log)
			}
		})
	}
}

// TestBenchmarkSpec keeps BENCHMARK.json and the program in step: the
// same workloads and the same metrics, names, units and directions.
func TestBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
