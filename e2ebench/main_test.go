package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"github.com/green-dc/baat/internal/core"
)

// runSmall runs a workload on a small fleet and a short horizon, so the
// whole suite takes seconds.
func runSmall(t *testing.T, name string, seed int64, trace bool) outcome {
	t.Helper()
	var o outcome
	switch w := workloads[name].(type) {
	case fleetWorkload:
		w.plan = fleetPlan{nodes: 48, days: 3, reps: 2}
		o = w.run(seed, trace, "")
	case serveWorkload:
		w.plan = servePlan{nodes: 6, horizon: 3, reps: 2}
		o = w.run(seed, trace, "")
	default:
		t.Fatalf("unknown workload %q", name)
	}
	if o.failed > 0 || o.attempted < 1 {
		t.Fatalf("%s (trace %v): %d of %d failed: %v", name, trace, o.failed, o.attempted, o.problems)
	}
	return o
}

type declared struct {
	Command   []string `json:"command"`
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

// TestMetricsDeclared checks that BENCHMARK.json declares exactly the
// workloads the command runs and exactly the metrics it prints, with the
// same units, and that every workload prints every metric of its mode as a
// finite number.
func TestMetricsDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	e2e := map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, c := range []struct {
		mode     string
		declared map[string]string
		printed  map[string]string
	}{{"end_to_end", e2e, endToEndUnits}, {"per_layer", layer, layerUnits}} {
		for name, unit := range c.printed {
			if got, ok := c.declared[name]; !ok || got != unit {
				t.Errorf("%s metric %s (%s) declared as %q", c.mode, name, unit, got)
			}
		}
		for name := range c.declared {
			if _, ok := c.printed[name]; !ok {
				t.Errorf("%s metric %s is declared but never printed", c.mode, name)
			}
		}
	}

	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := runSmall(t, name, 1, trace)
			want := endToEndUnits
			if trace {
				want = layerUnits
			}
			if got := sortedKeys(o.metrics); !slices.Equal(got, sortedKeys(want)) {
				t.Errorf("%s (trace %v) prints %v, want %v", name, trace, got, sortedKeys(want))
			}
			for k, v := range o.metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (trace %v): %s = %v", name, trace, k, v)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, k, v)
				}
			}
		}
	}
}

// countMetrics are the per-layer metrics that count work rather than time
// it; they must repeat exactly.
var countMetrics = []string{
	"core.place_calls",
	"core.place_nocap_frac",
	"core.control_calls",
	"checkpoint.bytes_per_node",
	"serve.checkpoint_mb",
	"serve.requests",
	"serve.request_errors",
}

func TestCountMetricsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		a := runSmall(t, name, 3, true)
		b := runSmall(t, name, 3, true)
		for _, k := range countMetrics {
			if a.metrics[k] != b.metrics[k] {
				t.Errorf("%s: %s = %v, then %v", name, k, a.metrics[k], b.metrics[k])
			}
		}
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames() {
		plain := runSmall(t, name, 5, false)
		traced := runSmall(t, name, 5, true)
		if plain.digest == "" || plain.digest != traced.digest {
			t.Errorf("%s: untraced digest %q, traced %q", name, plain.digest, traced.digest)
		}
	}
}

func TestSeedChangesDigest(t *testing.T) {
	for _, name := range workloadNames() {
		a := runSmall(t, name, 1, false)
		b := runSmall(t, name, 2, false)
		if a.digest == b.digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", name, a.digest)
		}
	}
}

func TestDecoratorForwardsState(t *testing.T) {
	for _, name := range []string{"baat", "ebuff"} {
		inner, err := core.Build(core.PolicySpec{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		wrapped := wrapTimed(inner, newTracer())
		_, innerStateful := inner.(core.StatefulPolicy)
		_, wrappedStateful := wrapped.(core.StatefulPolicy)
		if innerStateful != wrappedStateful {
			t.Errorf("%s: inner stateful %v, decorated %v", name, innerStateful, wrappedStateful)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: decorated name %q, inner %q", name, wrapped.Name(), inner.Name())
		}
	}
}
