package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/green-dc/baat/internal/serve"
	"github.com/green-dc/baat/internal/sim"
)

// servedTicksPerDay is the daemon's default one-minute tick.
const servedTicksPerDay = 24 * 60

// serveWorkload drives the real `baatsim serve` handler over loopback with
// one closed-loop client: it steps a BAAT run to its horizon following the
// SSE stream, then forks every day, steps the child one day, reads its
// result and deletes it.
type serveWorkload struct {
	name string
	plan servePlan
}

type servePlan struct {
	nodes   int
	horizon int // simulated days of the parent run
	reps    int // repetitions, each on a fresh daemon
}

// client is the benchmark's one HTTP client. Every request counts as
// attempted; a transport error or non-2xx answer counts as failed.
type client struct {
	base     string
	hc       *http.Client
	tr       *tracer
	requests int
	errors   int
	problems []string
}

// do sends one request and decodes a JSON answer into out (when non-nil).
// route names the span, e.g. "POST /runs/{id}/fork".
func (c *client) do(method, route, path string, body, out any) ([]byte, error) {
	c.requests++
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	var data []byte
	call := func() error {
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err = io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
		}
		return nil
	}
	err := c.tr.call(route, false, call)
	if err == nil && out != nil {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		c.errors++
		c.problems = append(c.problems, err.Error())
	}
	return data, err
}

// stream follows one run's SSE stream on its own goroutine, which ends
// when the server closes the stream or close is called.
type stream struct {
	cancel context.CancelFunc
	events chan sseEvent
}

type sseEvent struct {
	name string
	data []byte
	cpu  time.Duration // process CPU time when the event arrived
	at   time.Time     // wall-clock time when the event arrived
}

func (c *client) openStream(id string) (*stream, error) {
	c.requests++
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/runs/"+id+"/stream", nil)
	if err == nil {
		var resp *http.Response
		resp, err = c.hc.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			err = fmt.Errorf("GET /runs/%s/stream: %s", id, resp.Status)
		}
		if err == nil {
			st := &stream{cancel: cancel, events: make(chan sseEvent)}
			go st.read(ctx, resp.Body)
			return st, nil
		}
	}
	cancel()
	c.errors++
	c.problems = append(c.problems, err.Error())
	return nil, err
}

func (st *stream) read(ctx context.Context, body io.ReadCloser) {
	defer close(st.events)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && ev.name != "":
			ev.cpu, ev.at = cpuNow(), time.Now()
			select {
			case st.events <- ev:
			case <-ctx.Done():
				return
			}
			ev = sseEvent{}
		}
	}
}

// nextDay waits for the next "day" event, skipping state changes.
func (st *stream) nextDay() (sim.DayStats, sseEvent, error) {
	for ev := range st.events {
		switch ev.name {
		case "day":
			var ds sim.DayStats
			err := json.Unmarshal(ev.data, &ds)
			return ds, ev, err
		case "error":
			return sim.DayStats{}, ev, fmt.Errorf("run failed: %s", ev.data)
		}
	}
	return sim.DayStats{}, sseEvent{}, fmt.Errorf("stream ended before the next day")
}

// waitDone waits for the terminal "done" state.
func (st *stream) waitDone() error {
	for ev := range st.events {
		if ev.name == "state" && bytes.Contains(ev.data, []byte(`"done"`)) {
			return nil
		}
		if ev.name == "error" {
			return fmt.Errorf("run failed: %s", ev.data)
		}
	}
	return fmt.Errorf("stream ended before the run was done")
}

// finish reads the stream to its end, which the server marks by closing
// it, then releases it.
func (st *stream) finish() {
	for range st.events {
	}
	st.cancel()
}

// close stops the reader and waits for it to exit.
func (st *stream) close() {
	st.cancel()
	for range st.events {
	}
}

// servedRep is one repetition: set-up (daemon start, POST /runs and day
// 1), the parent's timed days, and one fork per day.
type servedRep struct {
	setup time.Duration // CPU time
	// gaps is the CPU time of parent days 2..horizon, each from its step
	// request to its SSE day event; iters is the CPU time of each fork
	// round (the fork request, then the child's day, result and delete);
	// forks is the wall-clock latency of each fork request.
	gaps   []time.Duration
	walls  []time.Duration // wall-clock time of the same parent days
	forks  []time.Duration
	iters  []time.Duration
	alloc  uint64
	digest string
	days   []sim.DayStats
	// window bounds the parent's timed days on the tracer's clock.
	window [2]time.Duration
	// checkpointBytes and twinGaps are measured by the last traced
	// repetition.
	checkpointBytes int
	twinGaps        []time.Duration
}

// runSpec is the served run: the daemon's defaults (one-minute ticks,
// 2048-row tables, a telemetry recorder, a checkpoint every day) with BAAT,
// a fleet of p.nodes and jobs scaled to it. Every day is cloudy, so every
// seed serves the same weather and per-day medians compare like with like.
func runSpec(seed int64, p servePlan, policy string, checkpointEvery int) serve.RunSpec {
	jobs := 7 * p.nodes / 6
	return serve.RunSpec{
		Name:            "e2ebench",
		Policy:          policy,
		Days:            p.horizon,
		Nodes:           p.nodes,
		Seed:            seed,
		Weather:         "cloudy",
		JobsPerDay:      &jobs,
		Workers:         1,
		CheckpointEvery: checkpointEvery,
	}
}

// servedRun is one daemon with the run under test and its open stream.
type servedRun struct {
	srv *serve.Server
	c   *client
	id  string
	st  *stream
	day sim.DayStats // day 1
}

// startRun starts a daemon, creates the run, opens its stream and steps
// day 1: the set-up of every repetition.
func startRun(seed int64, p servePlan, policy string, tr *tracer) (*servedRun, error) {
	srv := serve.NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &servedRun{srv: srv, c: &client{base: "http://" + addr, hc: &http.Client{}, tr: tr}}
	r.id, r.st, r.day, err = r.c.createRun("POST /runs", runSpec(seed, p, policy, 0))
	return r, err
}

// createRun creates a run, opens its stream and steps day 1.
func (c *client) createRun(route string, spec serve.RunSpec) (string, *stream, sim.DayStats, error) {
	var info serve.RunInfo
	if _, err := c.do(http.MethodPost, route, "/runs", spec, &info); err != nil {
		return "", nil, sim.DayStats{}, err
	}
	st, err := c.openStream(info.ID)
	if err != nil {
		return info.ID, nil, sim.DayStats{}, err
	}
	if _, err := c.do(http.MethodPost, "POST /runs/{id}/step", "/runs/"+info.ID+"/step?to=1", nil, nil); err != nil {
		return info.ID, st, sim.DayStats{}, err
	}
	day, _, err := st.nextDay()
	return info.ID, st, day, err
}

func (r *servedRun) close() {
	if r.st != nil {
		r.st.close()
	}
	r.srv.Close()
	r.c.hc.CloseIdleConnections()
}

// stepDays steps run id one day at a time from day 2 to the horizon and
// waits for its terminal state. Each day is timed from its step request
// to its SSE day event, in CPU time (gaps) and wall-clock time (walls);
// the heap is settled before each day, while the daemon is idle. A
// GET /runs/{id} is issued while each day steps, in traced and untraced
// repetitions alike, so the two differ only by tracing.
func (c *client) stepDays(id string, st *stream, horizon int, h *meter) (days []sim.DayStats, gaps, walls []time.Duration, err error) {
	for d := 2; d <= horizon; d++ {
		h.settle()
		start, wall := cpuNow(), time.Now()
		if _, err := c.do(http.MethodPost, "POST /runs/{id}/step", fmt.Sprintf("/runs/%s/step?to=%d", id, d), nil, nil); err != nil {
			return nil, nil, nil, err
		}
		if _, err := c.do(http.MethodGet, "GET /runs/{id}", "/runs/"+id, nil, nil); err != nil {
			return nil, nil, nil, err
		}
		ds, ev, err := st.nextDay()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("day %d: %w", d, err)
		}
		gaps = append(gaps, ev.cpu-start)
		walls = append(walls, ev.at.Sub(wall))
		days = append(days, ds)
	}
	if err := st.waitDone(); err != nil {
		return nil, nil, nil, err
	}
	st.finish()
	return days, gaps, walls, nil
}

// repeat runs one repetition on a fresh daemon and returns it still
// serving, for the caller to close: set-up, the parent stepped day by day
// to its horizon, then one fork per day. The allocation count runs from
// before the set-up to after the last fork. Simulated outputs
// that disagree count as failed in o.
func (w serveWorkload) repeat(seed int64, p servePlan, tr *tracer, h *meter, o *outcome) (*servedRep, *servedRun, error) {
	policy := "baat"
	if tr != nil {
		policy = timedPrefix + policy
		activeTracer.Store(tr)
		defer activeTracer.Store(nil)
	}
	rp := &servedRep{}
	alloc := h.settle()
	start := cpuNow()
	r, err := startRun(seed, p, policy, tr)
	rp.setup = cpuNow() - start
	if err != nil {
		return nil, r, fmt.Errorf("set-up: %w", err)
	}
	c, id := r.c, r.id

	if tr != nil {
		rp.window[0] = tr.now()
	}
	days, gaps, walls, err := c.stepDays(id, r.st, p.horizon, h)
	if err != nil {
		return nil, r, fmt.Errorf("parent: %w", err)
	}
	if tr != nil {
		rp.window[1] = tr.now()
	}
	rp.gaps, rp.walls = gaps, walls
	days = append([]sim.DayStats{r.day}, days...)

	var res serve.RunResult
	if _, err := c.do(http.MethodGet, "GET /runs/{id}/result", "/runs/"+id+"/result", nil, &res); err != nil {
		return nil, r, err
	}
	if len(res.Days) != len(days) {
		return nil, r, fmt.Errorf("result holds %d days, the stream delivered %d", len(res.Days), len(days))
	}
	for i, ds := range res.Days {
		if dayKey(ds) != dayKey(days[i]) {
			o.fail("result day %d differs from its stream event", i+1)
		}
	}
	dg := newDigest()
	dg.days(res.Days...)
	dg.nodes(res.Nodes)
	rp.digest = dg.sum()
	rp.days = res.Days

	for d := 1; d < p.horizon; d++ {
		h.settle()
		start, wall := cpuNow(), time.Now()
		var child serve.RunInfo
		if _, err := c.do(http.MethodPost, "POST /runs/{id}/fork", fmt.Sprintf("/runs/%s/fork?day=%d", id, d), nil, &child); err != nil {
			return nil, r, err
		}
		rp.forks = append(rp.forks, time.Since(wall))
		forkCPU := cpuNow() - start
		// Settling again lets the child's day start from the same heap
		// state as a parent day, with no encoder buffer left pooled by the
		// fork's own re-serialization.
		h.settle()
		start = cpuNow()
		first, err := stepChild(c, child.ID, d)
		if err != nil {
			return nil, r, err
		}
		rp.iters = append(rp.iters, forkCPU+cpuNow()-start)
		if dayKey(first) != dayKey(days[d]) {
			o.fail("child forked at day %d: first day differs from the parent's day %d", d, d+1)
		}
	}
	rp.alloc = h.settle() - alloc
	return rp, r, nil
}

// nodeSteps is the median over repetitions of node-steps per second over
// the timed days: the parent's days after day 1 and one child day per
// fork, timed with the fork round (fork, child day, result, delete).
func (p servePlan) nodeSteps(reps []*servedRep) float64 {
	var rates []float64
	for _, rp := range reps {
		t := sum(rp.gaps) + sum(rp.iters)
		rates = append(rates, float64(2*(p.horizon-1)*p.nodes*servedTicksPerDay)/t.Seconds())
	}
	return median(rates)
}

// repeats runs p.reps repetitions, alternating untraced and traced ones
// when tr is non-nil; the last traced one also reads a checkpoint and runs
// the twin without checkpoints. Every repetition must produce the same
// digest. Each request counts as attempted; a failed request, a failed
// repetition or a differing digest counts as failed.
func (w serveWorkload) repeats(seed int64, p servePlan, tr *tracer, o *outcome) *servedSet {
	set := &servedSet{meter: newMeter()}
	h := set.meter
	kinds := []*tracer{nil}
	if tr != nil {
		kinds = append(kinds, tr)
	}
	for i := 0; i < p.reps; i++ {
		for _, t := range kinds {
			refs := len(h.ref)
			rp, r, err := w.repeat(seed, p, t, h, o)
			if err == nil && t != nil && i == p.reps-1 {
				err = w.twinAndCheckpoint(seed, p, r, rp, h)
			}
			var requestErrors int
			if r != nil {
				r.close()
				o.attempted += r.c.requests
				o.failed += r.c.errors
				o.problems = append(o.problems, r.c.problems...)
				requestErrors = r.c.errors
				set.requests += r.c.requests
				set.requestErrors += r.c.errors
			}
			if err != nil {
				if requestErrors == 0 {
					o.fail("repetition %d: %v", i, err)
				}
				return set
			}
			if o.digest == "" {
				o.digest = rp.digest
			} else if rp.digest != o.digest {
				o.fail("repetition %d (traced %v): digest %s differs from %s", i, t != nil, rp.digest, o.digest)
			}
			fmt.Fprintf(os.Stderr, "e2ebench: %s traced=%v set-up %v days %v forks %v reference %v\n", w.name, t != nil,
				rp.setup.Round(time.Millisecond), roundAll(rp.gaps), roundAll(rp.forks), roundAll(h.ref[refs:]))
			if t == nil {
				set.plain = append(set.plain, rp)
			} else {
				set.timed = append(set.timed, rp)
			}
		}
	}
	return set
}

// servedSet is what repeats measured.
type servedSet struct {
	plain, timed  []*servedRep
	meter         *meter
	requests      int
	requestErrors int
}

// stepChild steps a child forked at day d one day, following its stream,
// reads the day from its result and deletes it.
func stepChild(c *client, id string, d int) (sim.DayStats, error) {
	st, err := c.openStream(id)
	if err != nil {
		return sim.DayStats{}, err
	}
	defer st.close()
	if _, err := c.do(http.MethodPost, "POST /runs/{id}/step", fmt.Sprintf("/runs/%s/step?to=%d", id, d+1), nil, nil); err != nil {
		return sim.DayStats{}, err
	}
	for {
		ds, _, err := st.nextDay()
		if err != nil {
			return sim.DayStats{}, fmt.Errorf("child of day %d: %w", d, err)
		}
		if ds.Day > d {
			break
		}
	}
	var res serve.RunResult
	if _, err := c.do(http.MethodGet, "GET /runs/{id}/result", "/runs/"+id+"/result", nil, &res); err != nil {
		return sim.DayStats{}, err
	}
	if _, err := c.do(http.MethodDelete, "DELETE /runs/{id}", "/runs/"+id, nil, nil); err != nil {
		return sim.DayStats{}, err
	}
	// Deleting the run ends its stream; reading to the end lets the
	// daemon's stream handler return before the heap is settled.
	st.finish()
	if len(res.Days) != d+1 {
		return sim.DayStats{}, fmt.Errorf("child of day %d: result holds %d days", d, len(res.Days))
	}
	return res.Days[d], nil
}

func (w serveWorkload) run(seed int64, trace bool, spansDir string) outcome {
	if trace {
		return w.perLayer(seed, spansDir)
	}
	return w.endToEnd(seed)
}

func (w serveWorkload) endToEnd(seed int64) outcome {
	var o outcome
	p := w.plan
	set := w.repeats(seed, p, nil, &o)
	if o.failed > 0 {
		return o
	}
	var setup, gaps []time.Duration
	var alloc uint64
	for _, rp := range set.plain {
		setup = append(setup, rp.setup)
		gaps = append(gaps, rp.gaps...)
		alloc += rp.alloc
	}
	o.metrics = map[string]float64{
		"setup_s":          median(seconds(setup)),
		"node_steps_per_s": p.nodeSteps(set.plain),
		"day_p50_s":        median(seconds(gaps)),
		"alloc_mb_per_day": float64(alloc) / float64(len(set.plain)*(2*p.horizon-1)) / mb,
		"heap_peak_mb":     set.meter.peakMB(),
	}
	set.meter.scaleTimes(o.metrics)
	return o
}

// perLayer alternates untraced repetitions with traced ones, through the
// timing decorator, and reports
// the per-layer metrics from the traced ones.
func (w serveWorkload) perLayer(seed int64, spansDir string) outcome {
	var o outcome
	p := w.plan
	tr := newTracer()
	set := w.repeats(seed, p, tr, &o)
	if o.failed > 0 {
		return o
	}
	plain, timed := set.plain, set.timed
	spans := tr.snapshot()
	var lt layerTimes
	var parent time.Duration
	var plainGaps, forks []time.Duration
	for _, rp := range timed {
		lt.add(sumSpans(spans, rp.window[0], rp.window[1]))
		forks = append(forks, rp.forks...)
	}
	for _, rp := range plain {
		plainGaps = append(plainGaps, rp.gaps...)
		parent += sum(rp.walls)
	}
	last := timed[len(timed)-1]
	m := zeroLayerMetrics()
	lt.coreMetrics(m, float64(len(timed)*(p.horizon-1)), parent)
	m["serve.create_ms"] = spanMean(spans, "POST /runs") * 1e3
	m["serve.status_ms"] = spanMean(spans, "GET /runs/{id}") * 1e3
	m["serve.checkpoint_get_ms"] = spanMean(spans, "GET /runs/{id}/checkpoint") * 1e3
	m["serve.checkpoint_mb"] = float64(last.checkpointBytes) / mb
	m["checkpoint.bytes_per_node"] = float64(last.checkpointBytes) / float64(p.nodes)
	m["serve.fork_p50_s"] = median(seconds(forks))
	m["serve.day_nockpt_s"] = median(seconds(last.twinGaps))
	m["serve.checkpoint_share"] = 1 - m["serve.day_nockpt_s"]/median(seconds(plainGaps))
	m["serve.requests"] = float64(set.requests)
	m["serve.request_errors"] = float64(set.requestErrors)
	m["trace.overhead_frac"] = 1 - p.nodeSteps(timed)/p.nodeSteps(plain)
	if err := tr.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)); err != nil {
		o.problems = append(o.problems, fmt.Sprintf("writing spans: %v", err))
	}
	o.metrics = m
	return o
}

// twinAndCheckpoint reads the parent's mid-horizon checkpoint, then steps
// a twin of the parent with checkpointing off on the same daemon, the same
// way; the twin must reproduce every parent day.
func (w serveWorkload) twinAndCheckpoint(seed int64, p servePlan, r *servedRun, rp *servedRep, h *meter) error {
	c := r.c
	body, err := c.do(http.MethodGet, "GET /runs/{id}/checkpoint", fmt.Sprintf("/runs/%s/checkpoint?day=%d", r.id, p.horizon/2), nil, nil)
	if err != nil {
		return err
	}
	rp.checkpointBytes = len(body)

	id, st, day1, err := c.createRun("POST /runs (twin)", runSpec(seed, p, "baat", -1))
	if st != nil {
		defer st.close()
	}
	if err != nil {
		return err
	}
	days, gaps, _, err := c.stepDays(id, st, p.horizon, h)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	rp.twinGaps = gaps
	for i, ds := range append([]sim.DayStats{day1}, days...) {
		if dayKey(ds) != dayKey(rp.days[i]) {
			return fmt.Errorf("twin without checkpoints: day %d differs", i+1)
		}
	}
	return nil
}
