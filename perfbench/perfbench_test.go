package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain runs the tests on one Go processor, as the benchmark runs.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// shortOps sizes the test runs of each workload.
var shortOps = map[string]int{"serve-hot": 3000, "multiget-cold": 200, "churn-recover": 5000}

func shortConfig(name string) runConfig {
	return runConfig{seed: 7, budget: time.Minute, ops: shortOps[name], outDir: os.TempDir(), spanTag: name}
}

// once builds a workload definition that sets up a single time.
func once(name string) workloadDef {
	wl := workloads[name]
	wl.setupRepeats = 1
	return wl
}

func TestShortRunPrintsEveryEndToEndMetric(t *testing.T) {
	for name := range shortOps {
		t.Run(name, func(t *testing.T) {
			res, err := endToEndRun(once(name), shortConfig(name))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
				t.Fatalf("result keys %v, want %v", keys, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < shortOps[name] {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(endToEndDefs) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				mv, ok := res.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Fatalf("metric %s: %+v present=%v, want unit %s", d.name, mv, ok, d.unit)
				}
				if mv.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", d.name, mv.Value)
				}
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("metric %s missing from the printed lines", d.name)
				}
			}
			if !strings.Contains(out.String(), "failed_frac") {
				t.Error("failed_frac missing from the printed lines")
			}
		})
	}
}

func TestCorruptedModelIsCaught(t *testing.T) {
	for name := range shortOps {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(name)
			cfg.corruptModel = true
			res, err := endToEndRun(once(name), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted model went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestSameSeedRepeats checks that a fixed op count on the same seed
// repeats the op and failure counts and the reported virtual latencies
// exactly. multiget-cold also repeats every per-op virtual latency.
// churn-recover does not: with lazy apply, whether a put pays one more
// verb depends on how far the back-end replayer got, which is host
// scheduling; the test logs how many ops diverged.
func TestSameSeedRepeats(t *testing.T) {
	for _, name := range []string{"multiget-cold", "churn-recover"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]*measurement
			for i := range runs {
				m, err := measureOnce(workloads[name], shortConfig(name), false)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = m
				releaseMemory()
			}
			a, b := runs[0], runs[1]
			if a.attempted != b.attempted || a.failed != b.failed {
				t.Fatalf("attempted/failed %d/%d vs %d/%d", a.attempted, a.failed, b.attempted, b.failed)
			}
			for _, q := range []float64{0.5, 0.99} {
				if x, y := quantileUS(a.virtNS, q), quantileUS(b.virtNS, q); x != y {
					t.Errorf("virtual p%v %v vs %v us", q*100, x, y)
				}
			}
			if a.userBytes != b.userBytes {
				t.Errorf("live user bytes %d vs %d", a.userBytes, b.userBytes)
			}
			diverged := 0
			for i := range a.virtNS {
				if a.virtNS[i] != b.virtNS[i] {
					diverged++
				}
			}
			t.Logf("%d of %d per-op virtual latencies diverged; front-end counters:\n%v\n%v", diverged, len(a.virtNS), a.probe.fe, b.probe.fe)
			if name == "multiget-cold" && diverged > 0 {
				t.Errorf("%d per-op virtual latencies diverged", diverged)
			}
		})
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"asymnvm/internal/nvm.(*Device).sealRange": "nvm",
		"asymnvm/internal/core.(*Handle).Flush":    "core",
		"main.(*churnRecover).measure":             "bench",
		"runtime.mallocgc":                         "",
		"sync.(*Mutex).Lock":                       "",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metric tables and workload names here.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		if !slices.Contains(names, n) {
			t.Errorf("workload %s missing from BENCHMARK.json", n)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, layerDefs)
}
