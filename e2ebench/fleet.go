package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
)

// fleetTick is the fleet workloads' simulated step; fleetTableRows trims
// each node's power-table history so warehouse fleets fit in memory (the
// bench suite's warehouse settings).
const (
	fleetTick      = 5 * time.Minute
	fleetTableRows = 64
)

// fleetWorkload is one workload driven through the public engine:
// sim.New, ProvisionServices and RunDay on a single worker.
type fleetWorkload struct {
	name   string
	policy string
	// jobs turns on the per-prototype arrival rate scaled to the fleet,
	// JobsPerDay = 7·nodes/6; otherwise no job arrives.
	jobs   bool
	faults string
	// checkpoint times Checkpoint and ResumeFrom at the end of the traced
	// run.
	checkpoint bool
	plan       fleetPlan
}

// fleetPlan sizes one run.
type fleetPlan struct {
	nodes int
	days  int // timed days, a multiple of three
	reps  int // set-ups, each with its warm-up day
}

func (f fleetWorkload) config(seed int64, nodes int, policy string) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: policy}
	cfg.Seed = seed
	cfg.Nodes = nodes
	cfg.Workers = 1
	cfg.Tick = fleetTick
	cfg.Node.TableCapacity = fleetTableRows
	cfg.ServiceVMs = 0 // provisioned directly
	cfg.JobsPerDay = 0
	if f.jobs {
		cfg.JobsPerDay = 7 * nodes / 6
	}
	cfg.Solar.Scale = 1.5 * float64(nodes) / 6
	if f.faults != "" {
		fc, err := faults.Profile(f.faults, 0)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Faults = fc
	}
	return cfg, nil
}

// warmupWeather is the weather of every run's untimed first day.
const warmupWeather = solar.Cloudy

// timedWeather is the timed days' weather: sunny, cloudy, rainy, repeated.
// Every seed times the same weather in the same order, so per-day medians
// and per-run throughput compare like with like across seeds; the seed
// still draws everything else (cloud patterns, job mix, manufacturing
// spread, faults). A rainy day costs BAAT more right after the warm-up
// than later in the block, so an order drawn from the seed would make the
// run's total work depend on the seed.
func timedWeather(days int) []solar.Weather {
	out := make([]solar.Weather, days)
	for i := range out {
		out[i] = solar.Weathers()[i%3]
	}
	return out
}

// repetition is one set-up — sim.New, ProvisionServices and a warm-up
// day — followed by the timed days on that fresh simulator.
type repetition struct {
	setup  time.Duration   // CPU time
	days   []time.Duration // CPU time per timed day
	wall   []time.Duration // wall-clock time per timed day
	alloc  uint64
	digest string
	sim    *sim.Simulator
	cfg    sim.Config
	// window bounds the timed days on the tracer's clock.
	window [2]time.Duration
}

// runDay runs one day inside a RunDay span (none when tr is nil).
func runDay(s *sim.Simulator, w solar.Weather, tr *tracer) (sim.DayStats, error) {
	tr.beginDay()
	defer tr.endDay()
	return s.RunDay(w)
}

// repeat runs one repetition. The heap is settled (collected and sampled)
// before the set-up and after each day, never inside a timed interval;
// the allocation count runs from before the set-up to after the last day.
// A non-nil tracer records spans and selects the timing decorator. The
// digest covers every day and the end-of-run node summaries.
func (f fleetWorkload) repeat(seed int64, p fleetPlan, tr *tracer, h *meter) (*repetition, error) {
	policy := f.policy
	if tr != nil {
		policy = timedPrefix + f.policy
		activeTracer.Store(tr)
		defer activeTracer.Store(nil)
	}
	cfg, err := f.config(seed, p.nodes, policy)
	if err != nil {
		return nil, err
	}
	weather := timedWeather(p.days)
	rp := &repetition{days: make([]time.Duration, 0, len(weather)), cfg: cfg}
	alloc := h.settle()
	start := cpuNow()
	err = tr.call("sim.New", false, func() error {
		var err error
		rp.sim, err = sim.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	s := rp.sim
	if err := tr.call("ProvisionServices", false, func() error { return s.ProvisionServices(p.nodes / 4) }); err != nil {
		return nil, err
	}
	if _, err := runDay(s, warmupWeather, tr); err != nil {
		return nil, fmt.Errorf("warm-up day: %w", err)
	}
	rp.setup = cpuNow() - start

	end := h.settle()
	if tr != nil {
		rp.window[0] = tr.now()
	}
	for _, w := range weather {
		start, wall := cpuNow(), time.Now()
		_, err := runDay(s, w, tr)
		rp.days = append(rp.days, cpuNow()-start)
		rp.wall = append(rp.wall, time.Since(wall))
		if err != nil {
			return nil, fmt.Errorf("day %d: %w", s.Day(), err)
		}
		end = h.settle()
	}
	rp.alloc = end - alloc
	if tr != nil {
		rp.window[1] = tr.now()
	}
	res, err := s.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("node summaries: %w", err)
	}
	dg := newDigest()
	dg.days(s.History()...)
	dg.nodes(res.Nodes)
	rp.digest = dg.sum()
	return rp, nil
}

// repeats runs p.reps repetitions, alternating untraced and traced ones
// when tr is non-nil (so the tracing overhead is measured on
// interleaved pairs). Every repetition must produce the same digest; each
// day attempted counts, and a failed day or a differing repetition counts
// as failed.
func (f fleetWorkload) repeats(seed int64, p fleetPlan, tr *tracer, o *outcome) (plain, timed []*repetition, h *meter) {
	h = newMeter()
	kinds := []*tracer{nil}
	if tr != nil {
		kinds = append(kinds, tr)
	}
	var last *repetition
	for i := 0; i < p.reps; i++ {
		for _, t := range kinds {
			if last != nil {
				last.sim = nil // let the collector take it before the next set-up
			}
			o.attempted += 1 + p.days
			refs := len(h.ref)
			rp, err := f.repeat(seed, p, t, h)
			if err != nil {
				o.fail("repetition %d: %v", i, err)
				return nil, nil, h
			}
			if o.digest == "" {
				o.digest = rp.digest
			} else if rp.digest != o.digest {
				o.fail("repetition %d (traced %v): digest %s differs from %s", i, t != nil, rp.digest, o.digest)
			}
			fmt.Fprintf(os.Stderr, "e2ebench: %s traced=%v set-up %v days %v (wall %v) reference %v\n",
				f.name, t != nil, rp.setup.Round(time.Millisecond), roundAll(rp.days), roundAll(rp.wall), roundAll(h.ref[refs:]))
			if t == nil {
				plain = append(plain, rp)
			} else {
				timed = append(timed, rp)
			}
			last = rp
		}
	}
	return plain, timed, h
}

// totals pools the repetitions' set-up times, day times and allocations,
// and takes the median over repetitions of their node-steps per second.
func (p fleetPlan) totals(reps []*repetition) (setup, days []time.Duration, alloc uint64, nodeSteps float64) {
	ticks := float64(24 * time.Hour / fleetTick)
	var rates []float64
	for _, rp := range reps {
		setup = append(setup, rp.setup)
		days = append(days, rp.days...)
		alloc += rp.alloc
		rates = append(rates, float64(len(rp.days)*p.nodes)*ticks/sum(rp.days).Seconds())
	}
	return setup, days, alloc, median(rates)
}

func (f fleetWorkload) run(seed int64, trace bool, spansDir string) outcome {
	if trace {
		return f.perLayer(seed, spansDir)
	}
	return f.endToEnd(seed)
}

// endToEnd reports a timed run's end-to-end metrics.
func (f fleetWorkload) endToEnd(seed int64) outcome {
	var o outcome
	p := f.plan
	plain, _, h := f.repeats(seed, p, nil, &o)
	if o.failed > 0 {
		return o
	}
	setup, days, alloc, nodeSteps := p.totals(plain)
	simDays := len(plain) + len(days) // warm-up days included
	o.metrics = map[string]float64{
		"setup_s":          median(seconds(setup)),
		"node_steps_per_s": nodeSteps,
		"day_p50_s":        median(seconds(days)),
		"alloc_mb_per_day": float64(alloc) / float64(simDays) / mb,
		"heap_peak_mb":     h.peakMB(),
	}
	h.scaleTimes(o.metrics)
	return o
}

// perLayer alternates untraced and traced repetitions and reports the
// per-layer metrics from the traced ones' spans.
func (f fleetWorkload) perLayer(seed int64, spansDir string) outcome {
	var o outcome
	p := f.plan
	tr := newTracer()
	plain, timed, _ := f.repeats(seed, p, tr, &o)
	if o.failed > 0 {
		return o
	}
	spans := tr.snapshot()
	var lt layerTimes
	for _, rp := range timed {
		lt.add(sumSpans(spans, rp.window[0], rp.window[1]))
	}
	_, _, _, plainRate := p.totals(plain)
	_, timedDays, _, timedRate := p.totals(timed)
	days := float64(len(timedDays))
	steps := days * float64(p.nodes) * float64(24*time.Hour/fleetTick)
	self := lt.day - lt.place - lt.control
	// Shares are of the paired untraced repetitions' wall-clock day time,
	// so place, control and self shares sum to 1 plus the tracing
	// overhead (the decorator's own work lands in sim.self) plus noise.
	var untraced time.Duration
	for _, rp := range plain {
		untraced += sum(rp.wall)
	}
	m := zeroLayerMetrics()
	lt.coreMetrics(m, days, untraced)
	m["sim.self_share"] = self.Seconds() / untraced.Seconds()
	m["sim.self_ns_per_node_step"] = float64(self.Nanoseconds()) / steps
	m["sim.new_s"] = spanMean(spans, "sim.New")
	m["sim.provision_s"] = spanMean(spans, "ProvisionServices")
	m["trace.overhead_frac"] = 1 - timedRate/plainRate

	if f.checkpoint {
		last := timed[len(timed)-1]
		if err := checkpointLayer(last.sim, last.cfg, tr, m); err != nil {
			o.fail("checkpoint: %v", err)
		}
	}
	if err := tr.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", f.name, seed)); err != nil {
		o.problems = append(o.problems, fmt.Sprintf("writing spans: %v", err))
	}
	o.metrics = m
	return o
}

// checkpointLayer writes the traced simulator's checkpoint and resumes a
// fresh simulator from it, timing both; the resumed history must equal the
// original's.
func checkpointLayer(s *sim.Simulator, cfg sim.Config, tr *tracer, m map[string]float64) error {
	var buf bytes.Buffer
	if err := tr.call("Checkpoint", false, func() error { return s.Checkpoint(&buf) }); err != nil {
		return err
	}
	size := buf.Len()
	activeTracer.Store(newTracer()) // the resumed policy's spans are not this run's
	defer activeTracer.Store(nil)
	resumed, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if err := tr.call("ResumeFrom", false, func() error { return resumed.ResumeFrom(&buf) }); err != nil {
		return err
	}
	want, got := newDigest(), newDigest()
	want.days(s.History()...)
	got.days(resumed.History()...)
	if want.sum() != got.sum() {
		return fmt.Errorf("resumed history differs from the checkpointed run")
	}
	m["checkpoint.bytes_per_node"] = float64(size) / float64(cfg.Nodes)
	m["checkpoint.encode_s"] = spanMean(tr.snapshot(), "Checkpoint")
	m["checkpoint.decode_s"] = spanMean(tr.snapshot(), "ResumeFrom")
	return nil
}
