package faults

import (
	"fmt"
	"time"

	"github.com/green-dc/baat/internal/rng"
)

// Injector resolves a fault plan tick by tick. It owns a private random
// substream (never shared with simulation randomness) and all of its state
// transitions happen inside Tick, which the simulator calls serially before
// fanning node physics out to workers — so every probabilistic trigger and
// noise draw lands in a fixed rule-then-node order and the resolved
// TickState is identical at any worker count.
//
// An Injector is not safe for concurrent use; the engine owns it.
type Injector struct {
	rng   *rng.Stream
	nodes int
	rules []ruleState
	state TickState // reused across ticks
}

// ruleState is one rule plus its per-target activation bookkeeping.
type ruleState struct {
	rule Rule
	mag  float64
	// targets expand Rule.Node: one entry per attacked node, or a single
	// node==-1 entry for fleet-wide kinds.
	targets []targetState
}

// targetState tracks one (rule, node) activation.
type targetState struct {
	node  int
	until time.Duration // absolute clock the current activation holds to
	open  bool          // a window is currently held open
	fired bool          // scheduled one-shot already delivered
}

// NewInjector compiles a fault plan for a fleet of the given size. The
// caller resolves Config.Seed before construction (the simulator copies
// its own seed in when it is zero); the injector's stream is the named
// rng.Faults substream of that seed, so it never collides with any
// simulation stream.
func NewInjector(cfg Config, nodes int) (*Injector, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("faults: injector needs at least one node, got %d", nodes)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		rng:   rng.New(cfg.Seed, rng.Faults),
		nodes: nodes,
	}
	for _, r := range cfg.Rules {
		rs := ruleState{rule: r, mag: r.magnitude()}
		switch {
		case kindInfo[r.Kind].fleetWide:
			rs.targets = []targetState{{node: -1}}
		case r.Node >= 0:
			if r.Node >= nodes {
				return nil, fmt.Errorf("faults: %s targets node %d but the fleet has %d nodes", r.Kind, r.Node, nodes)
			}
			rs.targets = []targetState{{node: r.Node}}
		default: // Node == -1: every node, each with independent state
			rs.targets = make([]targetState, nodes)
			for i := range rs.targets {
				rs.targets[i].node = i
			}
		}
		inj.rules = append(inj.rules, rs)
	}
	inj.state.Nodes = make([]NodeFault, nodes)
	return inj, nil
}

// sensorSeverity ranks corruption modes so overlapping sensor rules compose
// by worst-wins (a dropped reading beats a noisy one).
func sensorSeverity(m SensorMode) int {
	switch m {
	case ModeDrop:
		return 4
	case ModeNaN:
		return 3
	case ModeStuck:
		return 2
	case ModeNoise:
		return 1
	default:
		return 0
	}
}

// sensorMode maps sensor kinds to their corruption mode.
func sensorMode(k Kind) SensorMode {
	switch k {
	case SensorStuck:
		return ModeStuck
	case SensorNaN:
		return ModeNaN
	case SensorNoise:
		return ModeNoise
	case SensorDrop:
		return ModeDrop
	default:
		return SensorOK
	}
}

// start returns a scheduled rule's absolute activation clock.
func (r Rule) start() time.Duration {
	return time.Duration(r.Day-1)*24*time.Hour + r.At
}

// Tick resolves the fault state for the tick covering [clock, clock+tick).
// It must be called once per tick, with a monotonically advancing clock;
// the returned state (and its slices) is reused by the next call.
func (inj *Injector) Tick(clock, tick time.Duration) *TickState {
	st := &inj.state
	st.PVFactor = 1
	st.Injected = st.Injected[:0]
	for i := range st.Nodes {
		st.Nodes[i] = NodeFault{}
	}

	for ri := range inj.rules {
		rs := &inj.rules[ri]
		r := rs.rule
		oneShot := kindInfo[r.Kind].oneShot
		for ti := range rs.targets {
			t := &rs.targets[ti]

			if r.Day > 0 { // scheduled
				start := r.start()
				if oneShot {
					if !t.fired && clock >= start {
						t.fired = true
						inj.applyOneShot(r.Kind, rs.mag, t.node)
						st.Injected = append(st.Injected, Injected{
							Kind: r.Kind, Node: t.node, At: clock, Until: clock, Magnitude: rs.mag,
						})
					}
					continue
				}
				end := start + r.Duration
				active := clock >= start && clock < end
				if active && !t.open {
					t.open = true
					st.Injected = append(st.Injected, Injected{
						Kind: r.Kind, Node: t.node, At: clock, Until: end, Magnitude: rs.mag,
					})
				} else if !active {
					t.open = false
				}
				if active {
					// Scheduled PV dropouts are realized through the day's
					// derated generation curve (PVOutages), not PVFactor —
					// applying both would double the outage.
					if r.Kind != PVDropout {
						inj.applyWindow(r.Kind, rs.mag, t.node)
					}
				}
				continue
			}

			// Probabilistic: while a window holds, no new trigger is drawn.
			if clock < t.until {
				if !oneShot {
					inj.applyWindow(r.Kind, rs.mag, t.node)
				}
				continue
			}
			if inj.rng.Float64() >= r.Probability {
				continue
			}
			hold := r.Duration
			if hold < tick {
				hold = tick // a zero-duration activation covers this tick
			}
			t.until = clock + hold
			st.Injected = append(st.Injected, Injected{
				Kind: r.Kind, Node: t.node, At: clock, Until: t.until, Magnitude: rs.mag,
			})
			if oneShot {
				inj.applyOneShot(r.Kind, rs.mag, t.node)
			} else {
				inj.applyWindow(r.Kind, rs.mag, t.node)
			}
		}
	}
	return st
}

// applyWindow folds a holding window fault into the tick state.
func (inj *Injector) applyWindow(k Kind, mag float64, node int) {
	st := &inj.state
	if k == PVDropout {
		st.PVFactor *= 1 - mag
		return
	}
	apply := func(nf *NodeFault) {
		switch k {
		case SensorStuck, SensorNaN, SensorNoise, SensorDrop:
			mode := sensorMode(k)
			f := SensorFault{Mode: mode}
			if mode == ModeNoise {
				// Draws happen here, in rule-then-node iteration order, even
				// if a severer rule later overrides the mode — the draw count
				// must depend only on the schedule, never on composition.
				f.Sigma = mag
				f.Noise = [3]float64{inj.rng.NormFloat64(), inj.rng.NormFloat64(), inj.rng.NormFloat64()}
			}
			if sensorSeverity(mode) > sensorSeverity(nf.Sensor.Mode) {
				nf.Sensor = f
			}
		case UtilityBrownout:
			nf.UtilityDown = true
		}
	}
	if node >= 0 {
		apply(&st.Nodes[node])
		return
	}
	for i := range st.Nodes {
		apply(&st.Nodes[i])
	}
}

// applyOneShot folds a fire-once battery fault into the tick state.
func (inj *Injector) applyOneShot(k Kind, mag float64, node int) {
	st := &inj.state
	apply := func(nf *NodeFault) {
		switch k {
		case BatteryCapacityLoss:
			nf.CapacityFade += mag
		case BatteryResistanceGrowth:
			nf.ResistanceGrowth += mag
		case BatteryPrematureEOL:
			nf.TargetHealth = mag
		}
	}
	if node >= 0 {
		apply(&st.Nodes[node])
		return
	}
	for i := range st.Nodes {
		apply(&st.Nodes[i])
	}
}

// Outage is one scheduled PV derating window clipped to a single day,
// expressed in time of day.
type Outage struct {
	// Start and End bound the window within the day, [Start, End).
	Start, End time.Duration
	// Factor is the generation multiplier while the window holds
	// (1 − Magnitude; 0 for a full dropout).
	Factor float64
}

// PVOutages returns the scheduled PV-dropout windows overlapping the given
// 1-based simulated day, for the engine to fold into the day's generation
// curve before any tick runs. Probabilistic PV rules are excluded — those
// resolve per tick through TickState.PVFactor.
func (inj *Injector) PVOutages(day int) []Outage {
	var out []Outage
	d0 := time.Duration(day-1) * 24 * time.Hour
	d1 := d0 + 24*time.Hour
	for _, rs := range inj.rules {
		r := rs.rule
		if r.Kind != PVDropout || r.Day == 0 {
			continue
		}
		start, end := r.start(), r.start()+r.Duration
		if end <= d0 || start >= d1 {
			continue
		}
		o := Outage{Start: 0, End: 24 * time.Hour, Factor: 1 - rs.mag}
		if start > d0 {
			o.Start = start - d0
		}
		if end < d1 {
			o.End = end - d0
		}
		out = append(out, o)
	}
	return out
}
