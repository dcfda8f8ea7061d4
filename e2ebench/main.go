// Command e2ebench is the BAAT simulator's end-to-end benchmark. It runs
// one named workload from a seed, times it, checks the simulated outputs,
// and prints one JSON result as its last line of output:
//
//	e2ebench --workload baat-jobs --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run reports the per-layer metrics instead. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the run's GOMAXPROCS. The engine runs on one worker and the
// daemon serves one client, so one P carries all of the work. A second P
// would idle and spin looking for work after every goroutine hand-off and
// run the collector's marking in parallel; both count as process CPU time
// and vary from run to run (on serve-fork one P cut the CPU time of a
// set-up from about 0.15 s to 0.10 s).
const procs = 1

// deadline bounds a whole run; a run that would overrun it exits with an
// error instead of a result.
const deadline = 170 * time.Second

// endToEndUnits and layerUnits declare every metric the benchmark prints,
// with its unit. BENCHMARK.json declares the same set.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"node_steps_per_s": "1/s",
	"day_p50_s":        "s",
	"alloc_mb_per_day": "MB",
	"heap_peak_mb":     "MB",
}

var layerUnits = map[string]string{
	"core.place_calls":          "count",
	"core.place_nocap_frac":     "frac",
	"core.place_us":             "us",
	"core.place_alloc_kb":       "KB",
	"core.place_share":          "frac",
	"core.control_calls":        "count",
	"core.control_ms":           "ms",
	"core.control_share":        "frac",
	"sim.new_s":                 "s",
	"sim.provision_s":           "s",
	"sim.self_ns_per_node_step": "ns",
	"sim.self_share":            "frac",
	"checkpoint.bytes_per_node": "B",
	"checkpoint.encode_s":       "s",
	"checkpoint.decode_s":       "s",
	"serve.create_ms":           "ms",
	"serve.status_ms":           "ms",
	"serve.checkpoint_get_ms":   "ms",
	"serve.checkpoint_mb":       "MB",
	"serve.fork_p50_s":          "s",
	"serve.day_nockpt_s":        "s",
	"serve.checkpoint_share":    "frac",
	"serve.requests":            "count",
	"serve.request_errors":      "count",
	"trace.overhead_frac":       "frac",
}

// zeroLayerMetrics starts a traced result: a layer a workload never calls
// reports 0.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = 0
	}
	return m
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	digest    string
	metrics   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named workload with a fixed plan: the number of
// repetitions and the days each times.
type workload interface {
	run(seed int64, trace bool, spansDir string) outcome
}

// Every repetition sets the workload up afresh and then times a block of
// days (one of each weather in turn for a fleet); a run makes a fixed
// number of repetitions, so it samples several heap layouts and reports
// set-up time as a median. Repetitions repeat the same inputs, which
// averages out the host's noise but not the seed's: on baat-jobs the cost
// of a day depends on how hard BAAT's Control works that day (0.45 to 3.4
// ms a call, by seed), so it times six distinct days per repetition
// rather than three. An untraced run takes 12-28 s of wall time on a
// 2-vCPU Xeon guest; --seconds is accepted for the benchmark contract but
// does not resize a run, so every run of a workload does the same work.
const blockDays = 3

var workloads = map[string]workload{
	"baat-jobs": fleetWorkload{
		name: "baat-jobs", policy: "baat", jobs: true, faults: "chaos", checkpoint: true,
		plan: fleetPlan{nodes: 4096, days: 2 * blockDays, reps: 2},
	},
	"ebuff-jobs": fleetWorkload{
		name: "ebuff-jobs", policy: "ebuff", jobs: true,
		plan: fleetPlan{nodes: 4096, days: blockDays, reps: 4},
	},
	"ebuff-physics": fleetWorkload{
		name: "ebuff-physics", policy: "ebuff",
		plan: fleetPlan{nodes: 16384, days: blockDays, reps: 3},
	},
	"serve-fork": serveWorkload{
		name: "serve-fork",
		plan: servePlan{nodes: 64, horizon: 1 + blockDays, reps: 6},
	},
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 12, "run length in seconds the fixed plans are sized for (accepted, not used)")
	trace := flag.Int("trace", 0, "1 for the traced run and per-layer metrics")
	spansDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to; empty for none")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s did not finish within %v\n", *name, deadline)
		os.Exit(3)
	})

	o := w.run(*seed, *trace == 1, *spansDir)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "e2ebench:", p)
	}
	fmt.Printf("digest %s seed=%d trace=%d %s\n", *name, *seed, *trace, o.digest)
	units := endToEndUnits
	if *trace == 1 {
		units = layerUnits
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, k := range sortedKeys(units) {
		v, ok := o.metrics[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if res.Correct {
				fmt.Fprintf(os.Stderr, "e2ebench: metric %s not measured (%v)\n", k, v)
			}
			res.Correct = false
			v = 0
		}
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
