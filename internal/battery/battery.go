// Package battery models valve-regulated lead-acid (VRLA) battery packs of
// the kind the BAAT prototype instruments: 12 V / 35 Ah sealed units attached
// one-per-server (DSN'15, §V-A).
//
// The model is electrical only. It tracks state of charge, terminal voltage
// (open-circuit voltage minus/plus the IR drop), effective capacity under the
// Peukert effect, coulombic losses while charging, self-discharge, and a
// lumped thermal model driven by I²R heating. Aging is *not* computed here:
// the aging package observes usage and feeds degradation back through
// ApplyDegradation, which is exactly the separation the paper draws between
// the sensor layer (electrical observables) and the BAAT controller (aging
// assessment).
package battery

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/units"
)

// Spec describes a battery product as the manufacturer rates it. The zero
// value is not usable; start from DefaultSpec.
type Spec struct {
	// Chemistry selects the model tier simulating this product (see Kind).
	// The zero value means the reference lead-acid tier, so specs written
	// before model selection existed keep their meaning — and, because the
	// field is omitted from JSON when empty, their checkpoint config
	// hashes. Any non-default tier changes the marshaled spec and thereby
	// the hash, which is what makes a wrong-model resume fail loudly.
	Chemistry Kind `json:",omitempty"`

	// NominalVoltage is the rated terminal voltage (12 V for the prototype
	// units).
	NominalVoltage units.Volt

	// NominalCapacity is the rated 20-hour capacity (35 Ah for the
	// prototype units).
	NominalCapacity units.AmpereHour

	// PeukertExponent captures capacity shrinkage at high discharge rates.
	// Lead-acid batteries are typically 1.1–1.3.
	PeukertExponent float64

	// InternalResistance is the new-battery internal resistance in ohms.
	InternalResistance float64

	// CoulombicEfficiency is the fraction of charge current that is stored
	// while charging a new battery (gassing wastes the rest).
	CoulombicEfficiency float64

	// SelfDischargeFraction is the fraction of stored charge lost per day
	// at rest.
	SelfDischargeFraction float64

	// CutoffVoltage is the terminal voltage below which the battery is
	// disconnected to protect it (§II-B: under-voltage batteries cannot
	// sustain high-current draw and are cut out).
	CutoffVoltage units.Volt

	// MaxChargeCurrent limits the charger (typically C/4 for VRLA).
	MaxChargeCurrent units.Ampere

	// LifetimeThroughput is the nominal life-long Ah output CAP_nom used as
	// the denominator of normalized Ah throughput (Eq 1): the aggregate
	// charge a battery can cycle before wear-out, which prior work treats
	// as approximately constant.
	LifetimeThroughput units.AmpereHour

	// ThermalCapacity is the lumped heat capacity in J/°C.
	ThermalCapacity float64

	// ThermalResistance is the case-to-ambient thermal resistance in °C/W.
	ThermalResistance float64
}

// DefaultSpec returns the specification of the prototype's battery units:
// 12 V 35 Ah sealed lead-acid (Fig 11). LifetimeThroughput corresponds to
// roughly 200 equivalent full cycles at reference conditions, a conservative
// figure for inexpensive VRLA units cycled daily.
func DefaultSpec() Spec {
	return Spec{
		NominalVoltage:        12,
		NominalCapacity:       35,
		PeukertExponent:       1.15,
		InternalResistance:    0.022,
		CoulombicEfficiency:   0.92,
		SelfDischargeFraction: 0.002,
		CutoffVoltage:         10.5,
		MaxChargeCurrent:      8.75, // C/4
		LifetimeThroughput:    7000, // ≈200 full cycles × 35 Ah
		ThermalCapacity:       9000, // ~12 kg × 750 J/(kg·°C)
		ThermalResistance:     2.0,
	}
}

// Parallel returns the spec of n identical units wired in parallel, as in
// the prototype's two-packs-per-server arrangement (twelve 12 V 35 Ah units
// behind six servers, Fig 11): capacity, current limits, lifetime
// throughput, and thermal mass scale with n while resistance divides by n.
// Values of n below 1 are treated as 1.
func Parallel(s Spec, n int) Spec {
	if n < 1 {
		n = 1
	}
	f := float64(n)
	s.NominalCapacity = units.AmpereHour(float64(s.NominalCapacity) * f)
	s.MaxChargeCurrent = units.Ampere(float64(s.MaxChargeCurrent) * f)
	s.LifetimeThroughput = units.AmpereHour(float64(s.LifetimeThroughput) * f)
	s.ThermalCapacity *= f
	s.InternalResistance /= f
	return s
}

// Validate reports whether the spec is physically meaningful.
func (s Spec) Validate() error {
	switch {
	case !s.Chemistry.Valid():
		return fmt.Errorf("battery: unknown chemistry %q", s.Chemistry)
	case s.NominalVoltage <= 0:
		return errors.New("battery: nominal voltage must be positive")
	case s.NominalCapacity <= 0:
		return errors.New("battery: nominal capacity must be positive")
	case s.PeukertExponent < 1:
		return errors.New("battery: Peukert exponent must be >= 1")
	case s.InternalResistance <= 0:
		return errors.New("battery: internal resistance must be positive")
	case s.CoulombicEfficiency <= 0 || s.CoulombicEfficiency > 1:
		return errors.New("battery: coulombic efficiency must be in (0, 1]")
	case s.SelfDischargeFraction < 0 || s.SelfDischargeFraction >= 1:
		return errors.New("battery: self-discharge fraction must be in [0, 1)")
	case s.CutoffVoltage <= 0 || s.CutoffVoltage >= s.NominalVoltage:
		return errors.New("battery: cutoff voltage must be in (0, nominal)")
	case s.MaxChargeCurrent <= 0:
		return errors.New("battery: max charge current must be positive")
	case s.LifetimeThroughput <= 0:
		return errors.New("battery: lifetime throughput must be positive")
	case s.ThermalCapacity <= 0 || s.ThermalResistance <= 0:
		return errors.New("battery: thermal parameters must be positive")
	}
	return nil
}

// ocvCurve maps state of charge to open-circuit voltage for a nominal 12 V
// lead-acid battery at 25 °C. Points follow published VRLA rest-voltage
// tables. Voltages scale with NominalVoltage/12 for other pack voltages.
var ocvCurve = units.MustInterpolator(
	[]float64{0.00, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00},
	[]float64{11.30, 11.58, 11.75, 11.90, 12.06, 12.20, 12.32, 12.42, 12.50, 12.60, 12.73},
)

// Degradation is the cumulative, irreversible wear the aging model has
// assessed for a battery. Fractions are in [0, 1); 0 means a new battery.
type Degradation struct {
	// CapacityFade is the fraction of nominal capacity permanently lost
	// (sulphation, active-mass shedding, stratification).
	CapacityFade float64

	// ResistanceGrowth is the fractional growth of internal resistance
	// (grid corrosion): R = R0 × (1 + ResistanceGrowth).
	ResistanceGrowth float64

	// EfficiencyLoss is the absolute reduction of coulombic efficiency
	// (gassing and water loss).
	EfficiencyLoss float64
}

// Health converts degradation to the paper's health figure: the fraction of
// initial capacity still deliverable. A unit is at end-of-life when Health
// falls below 0.8 (§II-B).
func (d Degradation) Health() float64 {
	return units.Clamp01(1 - d.CapacityFade)
}

// EndOfLifeHealth is the capacity fraction below which a battery is no
// longer suitable for mission-critical backup (§II-B).
const EndOfLifeHealth = 0.8

// Pack is a single battery unit with live electrical state. Pack is not safe
// for concurrent use; in the simulator each node owns its pack.
type Pack struct {
	spec Spec

	// kind is the normalized chemistry; curve and curveRef are the OCV
	// table for that chemistry and the pack voltage it is tabulated at,
	// both fixed at construction.
	kind     Kind
	curve    *units.Interpolator
	curveRef float64

	// Manufacturing variation (§IV-B): multiplier on capacity and
	// resistance fixed at construction.
	capacityScale   float64
	resistanceScale float64

	soc  float64
	temp units.Celsius
	deg  Degradation

	// Cumulative counters feeding the aging metrics.
	ahOut      units.AmpereHour // total discharge throughput
	ahIn       units.AmpereHour // total charge throughput (gross, at terminals)
	whOut      units.WattHour
	whIn       units.WattHour
	operating  time.Duration
	cycleStart float64 // SoC at the start of the current discharge half-cycle
	inCycle    bool
	cycles     float64 // equivalent full cycles (throughput-based)

	// Telemetry handles, captured once at construction so the per-step
	// cost is one nil check plus an atomic add. All are nil (and no-ops)
	// unless WithRecorder was supplied.
	telDischarge *telemetry.Counter
	telCharge    *telemetry.Counter
	telRest      *telemetry.Counter
	telCutoff    *telemetry.Counter

	// thermalTau is ThermalCapacity×ThermalResistance, hoisted at
	// construction. restDt/restFactor and heatDt/heatAlpha memoize the two
	// per-step transcendentals, keyed by the only input that varies (dt);
	// a hit returns the identical float the cold path would compute, so
	// results are bit-for-bit unchanged. The simulator steps every pack
	// with one fixed tick, so these hit on every step after the first.
	thermalTau float64
	restDt     time.Duration
	restFactor float64
	heatDt     time.Duration
	heatAlpha  float64

	// hrDt/hrVal memoize dt.Hours() for the charge-integration steps on
	// the same bit-identical terms as the transcendental caches above.
	hrDt  time.Duration
	hrVal float64

	// ocvSoC/ocvVal memoize the open-circuit voltage keyed by the state of
	// charge — the only varying input: the curve, nominal voltage, and
	// reference scale are fixed at construction, and degradation does not
	// enter the OCV map. One tick reads the OCV several times at the same
	// SoC (power limits, the step itself, the sensor row), so most lookups
	// skip the curve interpolation.
	ocvSoC float64
	ocvVal units.Volt
	ocvOk  bool
}

// hours returns dt.Hours() memoized on dt. Callers validate dt > 0 first
// (checkStep), so the zero-valued cache never aliases a real step.
func (p *Pack) hours(dt time.Duration) float64 {
	if dt != p.hrDt {
		p.hrDt, p.hrVal = dt, dt.Hours()
	}
	return p.hrVal
}

// settings collects the construction-time options shared by every model
// tier, so one Option type configures Pack and Linear alike.
type settings struct {
	capScale float64
	resScale float64
	soc      float64
	rec      *telemetry.Recorder
}

// initialTemperature is every new pack's case temperature.
const initialTemperature units.Celsius = 25

func defaultSettings() settings {
	return settings{capScale: 1, resScale: 1, soc: 1}
}

// counters resolves the telemetry handles once at construction so the
// per-step cost is one nil check plus an atomic add. A nil recorder
// yields nil (no-op) handles.
func (s settings) counters() (discharge, charge, rest, cutoff *telemetry.Counter) {
	return s.rec.Counter(telemetry.MetricBatteryDischargeSteps),
		s.rec.Counter(telemetry.MetricBatteryChargeSteps),
		s.rec.Counter(telemetry.MetricBatteryRestSteps),
		s.rec.Counter(telemetry.MetricBatteryCutoffs)
}

// Option customizes a battery model at construction.
type Option func(*settings)

// WithInitialSoC sets the starting state of charge (default 1.0).
func WithInitialSoC(soc float64) Option {
	return func(s *settings) { s.soc = units.Clamp01(soc) }
}

// WithManufacturingVariation applies fixed per-unit deviation from the
// nameplate: capScale multiplies capacity, resScale multiplies resistance.
// Imperfect manufacturing is one of the paper's two causes of aging
// variation (§IV-B-1).
func WithManufacturingVariation(capScale, resScale float64) Option {
	return func(s *settings) {
		if capScale > 0 {
			s.capScale = capScale
		}
		if resScale > 0 {
			s.resScale = resScale
		}
	}
}

// WithRecorder instruments the model's step loop: discharge, charge, and
// rest step counts plus protection-cutoff trips are recorded under the
// canonical battery metric names. A nil recorder leaves the model exactly
// as un-instrumented (the handles stay nil no-ops).
func WithRecorder(rec *telemetry.Recorder) Option {
	return func(s *settings) { s.rec = rec }
}

// New constructs a Pack from spec.
func New(spec Spec, opts ...Option) (*Pack, error) {
	p := new(Pack)
	if err := NewInto(p, spec, opts...); err != nil {
		return nil, err
	}
	return p, nil
}

// NewInto initializes a Pack from spec in place, overwriting *p. It
// exists so a fleet can lay packs out in one contiguous slice instead of
// allocating each behind its own pointer; the resulting value is
// identical to one built by New.
func NewInto(p *Pack, spec Spec, opts ...Option) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	kind := spec.Chemistry.Normalize()
	if kind == KindLinear {
		return errors.New("battery: the linear tier is a Linear, not a Pack (use NewModel)")
	}
	st := defaultSettings()
	for _, opt := range opts {
		opt(&st)
	}
	curve, ref := chemCurve(kind)
	*p = Pack{
		spec:            spec,
		kind:            kind,
		curve:           curve,
		curveRef:        ref,
		capacityScale:   st.capScale,
		resistanceScale: st.resScale,
		soc:             st.soc,
		temp:            initialTemperature,
	}
	p.telDischarge, p.telCharge, p.telRest, p.telCutoff = st.counters()
	p.thermalTau = spec.ThermalCapacity * spec.ThermalResistance
	return nil
}

// Kind identifies the model tier simulating this pack.
func (p *Pack) Kind() Kind { return p.kind }

// Spec returns the nameplate specification.
func (p *Pack) Spec() Spec { return p.spec }

// SoC returns the current state of charge in [0, 1].
func (p *Pack) SoC() float64 { return p.soc }

// Temperature returns the current case temperature.
func (p *Pack) Temperature() units.Celsius { return p.temp }

// Degradation returns the wear applied so far.
func (p *Pack) Degradation() Degradation { return p.deg }

// Health returns remaining capacity as a fraction of initial capacity.
func (p *Pack) Health() float64 { return p.deg.Health() }

// ApplyDegradation replaces the pack's wear state. The aging model calls
// this after integrating damage for a control period. Values are clamped to
// physical ranges.
func (p *Pack) ApplyDegradation(d Degradation) {
	d.CapacityFade = units.Clamp01(d.CapacityFade)
	// A resistance beyond ~20× nameplate is a failed battery; clamping
	// keeps deeply-degraded packs numerically stable.
	d.ResistanceGrowth = units.Clamp(d.ResistanceGrowth, 0, 20)
	d.EfficiencyLoss = units.Clamp(d.EfficiencyLoss, 0, p.spec.CoulombicEfficiency-0.05)
	p.deg = d
}

// EffectiveCapacity returns the capacity currently deliverable at the
// reference (20-hour) rate, accounting for manufacturing variation and
// capacity fade.
func (p *Pack) EffectiveCapacity() units.AmpereHour {
	return units.AmpereHour(float64(p.spec.NominalCapacity) * p.capacityScale * p.deg.Health())
}

// referenceCurrent is the 20-hour discharge rate the capacity is rated at.
func (p *Pack) referenceCurrent() units.Ampere {
	return units.Ampere(float64(p.spec.NominalCapacity) / 20)
}

// capacityAt returns the Peukert-adjusted capacity for discharge current i.
// Below the reference rate the rated capacity applies.
func (p *Pack) capacityAt(i units.Ampere) units.AmpereHour {
	c := p.EffectiveCapacity()
	ref := p.referenceCurrent()
	if i <= ref {
		return c
	}
	k := p.spec.PeukertExponent
	scale := math.Pow(float64(ref)/float64(i), k-1)
	return units.AmpereHour(float64(c) * scale)
}

// internalResistance returns the present internal resistance including
// manufacturing variation and corrosion growth.
func (p *Pack) internalResistance() float64 {
	return p.spec.InternalResistance * p.resistanceScale * (1 + p.deg.ResistanceGrowth)
}

// ocv returns the open-circuit voltage at the present SoC, scaled from the
// chemistry's reference curve to the pack's nominal voltage.
func (p *Pack) ocv() units.Volt {
	if p.ocvOk && p.soc == p.ocvSoC {
		return p.ocvVal
	}
	v := p.curve.At(p.soc)
	p.ocvSoC = p.soc
	p.ocvVal = units.Volt(v * float64(p.spec.NominalVoltage) / p.curveRef)
	p.ocvOk = true
	return p.ocvVal
}

// OpenCircuitVoltage exposes the rest voltage (what the sensor module reads
// when the battery idles).
func (p *Pack) OpenCircuitVoltage() units.Volt { return p.ocv() }

// TerminalVoltage returns the loaded terminal voltage for discharge current
// i (positive = discharging, negative = charging).
func (p *Pack) TerminalVoltage(i units.Ampere) units.Volt {
	return units.Volt(float64(p.ocv()) - float64(i)*p.internalResistance())
}

// ErrPowerExceedsLimit is returned by CurrentForPower when the requested
// power cannot be delivered at any current (the IR drop dominates).
var ErrPowerExceedsLimit = errors.New("battery: requested power exceeds deliverable maximum")

// CurrentForPower solves for the discharge current that delivers electrical
// power pw at the terminals: pw = (OCV − I·R)·I. It returns
// ErrPowerExceedsLimit when the quadratic has no real solution.
func (p *Pack) CurrentForPower(pw units.Watt) (units.Ampere, error) {
	if pw <= 0 {
		return 0, nil
	}
	v := float64(p.ocv())
	r := p.internalResistance()
	disc := v*v - 4*r*float64(pw)
	if disc < 0 {
		return 0, fmt.Errorf("%w: %v at OCV %v", ErrPowerExceedsLimit, pw, p.ocv())
	}
	i := (v - math.Sqrt(disc)) / (2 * r)
	return units.Ampere(i), nil
}

// MaxDischargePower returns the maximum instantaneous power deliverable
// without the terminal voltage collapsing below the cutoff line. This is the
// quantity behind the paper's P_threshold (Fig 9): the largest draw the pack
// can sustain.
func (p *Pack) MaxDischargePower() units.Watt {
	v := float64(p.ocv())
	vc := float64(p.spec.CutoffVoltage)
	r := p.internalResistance()
	if v <= vc {
		return 0
	}
	// At the cutoff boundary the current is (v-vc)/r and power vc·I.
	i := (v - vc) / r
	return units.Watt(vc * i)
}

// MaxChargePower returns the battery-side power the charger could push
// into the pack this instant: OCV times the taper-limited charge current.
// Zero when full. The charger-side request adds conversion losses on top
// (the node divides by its charger efficiency).
func (p *Pack) MaxChargePower() units.Watt {
	if p.soc >= 1 {
		return 0
	}
	v := float64(p.ocv())
	maxI := float64(p.spec.MaxChargeCurrent)
	if p.soc > 0.9 {
		maxI *= units.Clamp((1-p.soc)/0.1, 0.05, 1)
	}
	return units.Watt(v * maxI)
}

// CutOff reports whether the battery has reached the protection threshold:
// either empty or unable to hold the cutoff voltage at the reference rate.
func (p *Pack) CutOff() bool {
	if p.soc <= 0.02 {
		return true
	}
	return p.TerminalVoltage(p.referenceCurrent()) < p.spec.CutoffVoltage
}

// StepResult reports what actually happened during a Step.
type StepResult struct {
	// Current is the realized terminal current (positive = discharge).
	Current units.Ampere
	// Voltage is the terminal voltage during the step.
	Voltage units.Volt
	// Energy is the electrical energy exchanged at the terminals
	// (positive = delivered to the load).
	Energy units.WattHour
	// Charge is the charge moved at the terminals (positive = out).
	Charge units.AmpereHour
	// CutOff reports whether the protection threshold tripped during the
	// step (discharge was truncated).
	CutOff bool
}

// finite reports whether x is a usable number (not NaN or ±Inf).
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// checkStep validates the inputs every step method shares. Rejecting
// non-finite values here is what keeps a poisoned sensor reading or a
// fuzzer-crafted NaN from flowing through Clamp (which passes NaN) into
// the state of charge.
func checkStep(pw units.Watt, dt time.Duration, amb units.Celsius) error {
	if !finite(float64(pw)) {
		return fmt.Errorf("battery: non-finite power %v", pw)
	}
	if dt <= 0 {
		return fmt.Errorf("battery: non-positive step duration %v", dt)
	}
	if !finite(float64(amb)) {
		return fmt.Errorf("battery: non-finite ambient temperature %v", amb)
	}
	return nil
}

// Discharge draws electrical power pw from the pack for duration dt at
// ambient temperature amb. The realized energy may be lower than requested
// if the pack trips its cutoff mid-step.
func (p *Pack) Discharge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep(pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	if pw < 0 {
		return StepResult{}, fmt.Errorf("battery: negative discharge power %v", pw)
	}
	if pw == 0 || p.CutOff() {
		p.rest(dt, amb)
		res := StepResult{Voltage: p.ocv(), CutOff: p.CutOff()}
		p.telRest.Inc()
		if res.CutOff {
			p.telCutoff.Inc()
		}
		return res, nil
	}
	i, err := p.CurrentForPower(pw)
	if err != nil {
		// Deliver the maximum instead of failing: the switcher asked for
		// more than the chemistry can give, which in the prototype trips
		// the under-voltage disconnect.
		p.rest(dt, amb)
		p.telCutoff.Inc()
		return StepResult{Voltage: p.ocv(), CutOff: true}, nil
	}
	v := p.TerminalVoltage(i)
	if v < p.spec.CutoffVoltage {
		p.rest(dt, amb)
		p.telCutoff.Inc()
		return StepResult{Voltage: v, CutOff: true}, nil
	}

	cap := p.capacityAt(i)
	dq := units.AmpereHour(float64(i) * p.hours(dt)) // units.ChargeOver, memoized hours
	avail := units.AmpereHour(p.soc * float64(cap))
	res := StepResult{Current: i, Voltage: v}
	if dq >= avail {
		// Truncate: the pack empties partway through the step.
		frac := 0.0
		if dq > 0 {
			frac = float64(avail) / float64(dq)
		}
		dq = avail
		dt = time.Duration(float64(dt) * frac)
		res.CutOff = true
	}
	if float64(cap) > 0 {
		p.soc = units.Clamp01(p.soc - float64(dq)/float64(cap))
	}
	res.Charge = dq
	// Energy at the terminals is v × i × hours = v × dq.
	res.Energy = units.WattHour(float64(v) * float64(dq))
	p.ahOut += dq
	p.whOut += res.Energy
	p.cycles += float64(dq) / math.Max(float64(p.spec.NominalCapacity), 1e-9)
	p.heat(i, dt, amb)
	p.operating += dt
	p.telDischarge.Inc()
	if res.CutOff {
		p.telCutoff.Inc()
	}
	return res, nil
}

// Charge pushes electrical power pw into the pack for dt. The charger model
// caps current at MaxChargeCurrent and tapers as the pack approaches full.
// It returns the power actually accepted, which lets the power bus route
// surplus solar elsewhere.
func (p *Pack) Charge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep(pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	if pw < 0 {
		return StepResult{}, fmt.Errorf("battery: negative charge power %v", pw)
	}
	if pw == 0 || p.soc >= 1 {
		p.rest(dt, amb)
		p.telRest.Inc()
		return StepResult{Voltage: p.ocv()}, nil
	}
	v := float64(p.ocv())
	r := p.internalResistance()
	// Charging terminal voltage: v + I·r; current from pw = (v + I·r)·I.
	disc := v*v + 4*r*float64(pw)
	i := (-v + math.Sqrt(disc)) / (2 * r)
	maxI := float64(p.spec.MaxChargeCurrent)
	// Taper: above 90 % SoC the acceptance current falls off linearly.
	if p.soc > 0.9 {
		maxI *= units.Clamp((1-p.soc)/0.1, 0.05, 1)
	}
	if i > maxI {
		i = maxI
	}
	vt := units.Volt(v + i*r)
	eff := p.spec.CoulombicEfficiency - p.deg.EfficiencyLoss
	cap := p.EffectiveCapacity()
	dq := units.AmpereHour(i * p.hours(dt)) // units.ChargeOver, memoized hours
	need := units.AmpereHour((1 - p.soc) * float64(cap) / math.Max(eff, 1e-6))
	if dq > need {
		dq = need
	}
	if float64(cap) > 0 {
		p.soc = units.Clamp01(p.soc + float64(dq)*eff/float64(cap))
	}
	res := StepResult{
		Current: units.Ampere(-i),
		Voltage: vt,
		Energy:  units.WattHour(-float64(vt) * float64(dq)),
		Charge:  units.AmpereHour(-dq),
	}
	p.ahIn += dq
	p.whIn += units.WattHour(float64(vt) * float64(dq))
	p.heat(units.Ampere(i), dt, amb)
	p.operating += dt
	p.telCharge.Inc()
	return res, nil
}

// Rest advances time with no terminal current: self-discharge plus thermal
// relaxation toward ambient.
func (p *Pack) Rest(dt time.Duration, amb units.Celsius) error {
	if err := checkStep(0, dt, amb); err != nil {
		return err
	}
	p.rest(dt, amb)
	p.operating += dt
	p.telRest.Inc()
	return nil
}

func (p *Pack) rest(dt time.Duration, amb units.Celsius) {
	if dt != p.restDt {
		days := dt.Hours() / 24
		p.restFactor = math.Pow(1-p.spec.SelfDischargeFraction, days)
		p.restDt = dt
	}
	p.soc = units.Clamp01(p.soc * p.restFactor)
	p.heat(0, dt, amb)
}

// heat advances the lumped thermal model: I²R generation against a single
// case-to-ambient resistance. The temperature is clamped to a physical
// envelope so that an extremely degraded pack cannot destabilize the model.
func (p *Pack) heat(i units.Ampere, dt time.Duration, amb units.Celsius) {
	gen := 0.0
	if i != 0 {
		gen = float64(i) * float64(i) * p.internalResistance() // watts
	}
	tau := p.thermalTau
	if tau <= 0 {
		return
	}
	if dt != p.heatDt {
		p.heatAlpha = 1 - math.Exp(-dt.Seconds()/tau)
		p.heatDt = dt
	}
	steady := float64(amb) + gen*p.spec.ThermalResistance
	alpha := p.heatAlpha
	t := float64(p.temp) + (steady-float64(p.temp))*alpha
	p.temp = units.Celsius(units.Clamp(t, -20, 90))
}

// Counters returns the cumulative usage counters the sensor table logs
// (Table 2) and the aging metrics consume.
type Counters struct {
	AhOut         units.AmpereHour
	AhIn          units.AmpereHour
	WhOut         units.WattHour
	WhIn          units.WattHour
	OperatingTime time.Duration
	// EquivalentFullCycles is throughput-based cycle count:
	// Σ discharge Ah / nominal capacity.
	EquivalentFullCycles float64
}

// Counters returns a snapshot of the cumulative usage counters.
func (p *Pack) Counters() Counters {
	return Counters{
		AhOut:                p.ahOut,
		AhIn:                 p.ahIn,
		WhOut:                p.whOut,
		WhIn:                 p.whIn,
		OperatingTime:        p.operating,
		EquivalentFullCycles: p.cycles,
	}
}

// RoundTripEfficiency returns lifetime Wh-out / Wh-in, the figure whose
// degradation Fig 5 plots. It returns 0 until some charge has flowed both
// ways.
func (p *Pack) RoundTripEfficiency() float64 {
	if p.whIn <= 0 || p.whOut <= 0 {
		return 0
	}
	return units.Clamp01(float64(p.whOut) / float64(p.whIn))
}

// StoredEnergy estimates the energy currently stored and deliverable at the
// reference rate.
func (p *Pack) StoredEnergy() units.WattHour {
	return units.WattHour(p.soc * float64(p.EffectiveCapacity()) * float64(p.spec.NominalVoltage))
}

// EstimateSoC inverts the voltage model: given a terminal voltage measured
// under discharge current i, it returns the state of charge the sensor
// layer would report. This is how the prototype's controller derives SoC
// from its front sensors (Table 2: "discharging voltage used for
// calculating SoC"). The estimate compensates the IR drop with the pack's
// present (aged) internal resistance, then inverts the OCV curve.
func (p *Pack) EstimateSoC(v units.Volt, i units.Ampere) float64 {
	// Undo the IR drop to recover the open-circuit voltage, then rescale
	// to the canonical 12 V curve.
	ocv := (float64(v) + float64(i)*p.internalResistance()) * p.curveRef / float64(p.spec.NominalVoltage)
	lo, hi := p.curve.Domain()
	if ocv >= p.curve.At(hi) {
		return 1
	}
	if ocv <= p.curve.At(lo) {
		return 0
	}
	// Binary search the monotone OCV curve.
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if p.curve.At(mid) < ocv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return units.Clamp01((lo + hi) / 2)
}
