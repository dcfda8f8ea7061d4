package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/vm"
)

// Span names. RunDay spans are opened by the benchmark around each
// sim.RunDay call; PlaceVM and Control spans come from the timing decorator
// and nest inside the RunDay span open when they start.
const (
	spanRunDay  = "RunDay"
	spanPlaceVM = "PlaceVM"
	spanControl = "Control"
)

// span is one timed call into a layer. Start and End are offsets from the
// tracer's origin; Parent indexes the enclosing span, -1 for none.
type span struct {
	Name       string        `json:"name"`
	Parent     int           `json:"parent"`
	Start      time.Duration `json:"start_ns"`
	End        time.Duration `json:"end_ns"`
	AllocBytes uint64        `json:"alloc_bytes,omitempty"`
	NoCap      bool          `json:"nocap,omitempty"`
}

// tracer keeps spans in memory until the run ends. Policy calls may come
// from a served run's goroutine, so every access is under mu.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	open   int // index of the open RunDay span, -1 when none
	alloc  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		open:   -1,
		alloc:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// now returns the offset from the tracer's origin.
func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// allocBytesLocked reads the cumulative heap allocation counter into the
// tracer's reusable sample, so the read itself allocates nothing.
func (t *tracer) allocBytesLocked() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// beginDay opens a RunDay span; endDay closes it. Like call, both do
// nothing on a nil tracer, so untraced code paths need no branches.
func (t *tracer) beginDay() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open = len(t.spans)
	t.spans = append(t.spans, span{Name: spanRunDay, Parent: -1, Start: t.now()})
}

func (t *tracer) endDay() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.open].End = t.now()
	t.open = -1
}

// call times fn as a span nested in the open RunDay span (if any),
// recording the bytes it allocated when withAlloc is set. A nil tracer
// just calls fn.
func (t *tracer) call(name string, withAlloc bool, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.mu.Lock()
	sp := span{Name: name, Parent: t.open}
	var a0 uint64
	if withAlloc {
		a0 = t.allocBytesLocked()
	}
	sp.Start = t.now()
	t.mu.Unlock()

	err := fn()

	t.mu.Lock()
	defer t.mu.Unlock()
	sp.End = t.now()
	if withAlloc {
		sp.AllocBytes = t.allocBytesLocked() - a0
	}
	sp.NoCap = errors.Is(err, core.ErrNoCapacity)
	t.spans = append(t.spans, sp)
	return err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir. An empty dir writes
// nothing.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.snapshot() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums the spans of a window: RunDay time, and the PlaceVM and
// Control children with their counts, failures and allocations.
type layerTimes struct {
	day          time.Duration
	place        time.Duration
	placeCalls   int
	placeNoCap   int
	placeAlloc   uint64
	control      time.Duration
	controlCalls int
}

func (lt *layerTimes) add(o layerTimes) {
	lt.day += o.day
	lt.place += o.place
	lt.placeCalls += o.placeCalls
	lt.placeNoCap += o.placeNoCap
	lt.placeAlloc += o.placeAlloc
	lt.control += o.control
	lt.controlCalls += o.controlCalls
}

// coreMetrics reports the placement and control layer over the given
// number of simulated days, with shares of the given wall time.
func (lt layerTimes) coreMetrics(m map[string]float64, days float64, wall time.Duration) {
	m["core.place_calls"] = float64(lt.placeCalls) / days
	m["core.control_calls"] = float64(lt.controlCalls) / days
	if lt.placeCalls > 0 {
		m["core.place_nocap_frac"] = float64(lt.placeNoCap) / float64(lt.placeCalls)
		m["core.place_us"] = float64(lt.place.Nanoseconds()) / 1e3 / float64(lt.placeCalls)
		m["core.place_alloc_kb"] = float64(lt.placeAlloc) / 1e3 / float64(lt.placeCalls)
	}
	if lt.controlCalls > 0 {
		m["core.control_ms"] = float64(lt.control.Nanoseconds()) / 1e6 / float64(lt.controlCalls)
	}
	m["core.place_share"] = lt.place.Seconds() / wall.Seconds()
	m["core.control_share"] = lt.control.Seconds() / wall.Seconds()
}

// spanMean is the mean duration in seconds of the spans with the given
// name, 0 for none.
func spanMean(spans []span, name string) float64 {
	var t time.Duration
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			t += sp.End - sp.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return t.Seconds() / float64(n)
}

// sumSpans aggregates the spans that start inside [from, to).
func sumSpans(spans []span, from, to time.Duration) layerTimes {
	var lt layerTimes
	for _, sp := range spans {
		if sp.Start < from || sp.Start >= to {
			continue
		}
		d := sp.End - sp.Start
		switch sp.Name {
		case spanRunDay:
			lt.day += d
		case spanPlaceVM:
			lt.place += d
			lt.placeCalls++
			lt.placeAlloc += sp.AllocBytes
			if sp.NoCap {
				lt.placeNoCap++
			}
		case spanControl:
			lt.control += d
			lt.controlCalls++
		}
	}
	return lt
}

// activeTracer is the tracer the timing decorator reports to. The policy
// registry builds policies from a name alone, so the benchmark hands the
// tracer over through this variable before it builds a traced simulator.
var activeTracer atomic.Pointer[tracer]

// timedPrefix names the timing decorator of a registered policy:
// "bench-timed-baat" wraps "baat".
const timedPrefix = "bench-timed-"

func init() {
	for _, inner := range []string{"baat", "ebuff"} {
		inner := inner
		core.Register(timedPrefix+inner, core.Descriptor{
			Display: "timed " + inner,
			Doc:     "benchmark timing decorator around " + inner,
			Rank:    1000,
			Build: func(core.PolicySpec) (core.Policy, error) {
				p, err := core.Build(core.PolicySpec{Name: inner})
				if err != nil {
					return nil, err
				}
				t := activeTracer.Load()
				if t == nil {
					return nil, fmt.Errorf("%s%s: no active tracer", timedPrefix, inner)
				}
				return wrapTimed(p, t), nil
			},
		})
	}
}

// timedPolicy delegates every call to the inner policy and records a span
// around PlaceVM and Control.
type timedPolicy struct {
	inner core.Policy
	tr    *tracer
}

// timedStatefulPolicy also forwards the checkpoint hooks, so the engine
// sees a stateful policy exactly when the inner one is.
type timedStatefulPolicy struct {
	*timedPolicy
	state core.StatefulPolicy
}

func wrapTimed(p core.Policy, t *tracer) core.Policy {
	tp := &timedPolicy{inner: p, tr: t}
	if sp, ok := p.(core.StatefulPolicy); ok {
		return timedStatefulPolicy{timedPolicy: tp, state: sp}
	}
	return tp
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) PlaceVM(ctx *core.Context, v *vm.VM) (*node.Node, error) {
	var n *node.Node
	err := p.tr.call(spanPlaceVM, true, func() error {
		var err error
		n, err = p.inner.PlaceVM(ctx, v)
		return err
	})
	return n, err
}

func (p *timedPolicy) Control(ctx *core.Context) error {
	return p.tr.call(spanControl, false, func() error { return p.inner.Control(ctx) })
}

func (p timedStatefulPolicy) Snapshot() ([]byte, error) { return p.state.Snapshot() }

func (p timedStatefulPolicy) Restore(data []byte) error { return p.state.Restore(data) }
