package sim

import (
	"testing"
	"time"

	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
)

// telemetrySim builds a simulator with its own recorder under harsh
// conditions: accelerated aging, a tight PV array, and default services, so
// batteries spend real time below the slowdown trigger.
func telemetrySim(t *testing.T, policy string) (*Simulator, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.NewRecorder()
	s := newSim(t, policy, func(c *Config) {
		c.Telemetry = rec
		c.Node.AgingConfig.AccelFactor = 50
		c.Solar.Scale = 0.8
		c.JobsPerDay = 6
	})
	return s, rec
}

// stressWeather is a battery-punishing sequence: rain drains the bank and
// the lone cloudy day cannot refill it.
var stressWeather = []solar.Weather{
	solar.Rainy, solar.Rainy, solar.Cloudy, solar.Rainy, solar.Rainy,
}

// TestTelemetryPolicyDivergence is the acceptance check for the telemetry
// subsystem: on an identical trace, e-Buff (which never migrates nor caps
// frequency) and BAAT (which does both, Figs 8/9) must produce different
// policy counters while agreeing on the pure engine counters.
func TestTelemetryPolicyDivergence(t *testing.T) {
	ebuffSim, ebuffRec := telemetrySim(t, "ebuff")
	baatSim, baatRec := telemetrySim(t, "baat")

	if _, err := ebuffSim.Run(stressWeather); err != nil {
		t.Fatal(err)
	}
	if _, err := baatSim.Run(stressWeather); err != nil {
		t.Fatal(err)
	}

	ebuff := ebuffRec.Snapshot()
	baat := baatRec.Snapshot()

	// Engine counters must match exactly: same days, same tick count.
	for _, name := range []string{telemetry.MetricSimTicks, telemetry.MetricSimDays} {
		if e, b := ebuff.Counter(name), baat.Counter(name); e != b {
			t.Errorf("%s: ebuff %d != baat %d (engines diverged)", name, e, b)
		}
	}
	if got, want := baat.Counter(telemetry.MetricSimDays), int64(len(stressWeather)); got != want {
		t.Errorf("days = %d, want %d", got, want)
	}

	// e-Buff is aging-oblivious: it never issues migrations or DVFS caps.
	for _, name := range []string{
		telemetry.MetricMigrations,
		telemetry.MetricDVFSCaps,
		telemetry.MetricDVFSRestores,
	} {
		if got := ebuff.Counter(name); got != 0 {
			t.Errorf("ebuff %s = %d, want 0", name, got)
		}
	}

	// BAAT must have actually managed the fleet on this trace.
	migrations := baat.Counter(telemetry.MetricMigrations)
	caps := baat.Counter(telemetry.MetricDVFSCaps)
	if migrations+caps == 0 {
		t.Fatalf("BAAT issued no migrations and no DVFS caps on a stress trace (migrations=%d caps=%d)",
			migrations, caps)
	}

	// And the actions must be visible in the event trace.
	policyEvents := func(evs []telemetry.Event) int {
		var n int
		for _, ev := range evs {
			if ev.Type == telemetry.EventMigration || ev.Type == telemetry.EventDVFSCap {
				n++
			}
		}
		return n
	}
	if policyEvents(baat.Events) == 0 {
		t.Error("BAAT counters moved but no migration/DVFS events were traced")
	}
	if got := policyEvents(ebuff.Events); got != 0 {
		t.Errorf("ebuff traced %d policy events, want 0", got)
	}
}

// TestTelemetryEngineCounters pins the engine-side counters to values
// derivable from the configuration.
func TestTelemetryEngineCounters(t *testing.T) {
	rec := telemetry.NewRecorder()
	s := newSim(t, "baat", func(c *Config) { c.Telemetry = rec })
	if _, err := s.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()

	ticksPerDay := int64(24 * time.Hour / DefaultConfig().Tick)
	if got := snap.Counter(telemetry.MetricSimTicks); got != ticksPerDay {
		t.Errorf("ticks = %d, want %d", got, ticksPerDay)
	}
	if got := snap.Counter(telemetry.MetricSimDays); got != 1 {
		t.Errorf("days = %d, want 1", got)
	}
	if got := snap.Counter(telemetry.MetricSimJobsSubmitted); got == 0 {
		t.Error("no jobs submitted")
	}
	if got := snap.Counter(telemetry.MetricSimPlacements); got == 0 {
		t.Error("no placements recorded")
	}
	// The clock gauge refreshes at control periods, so after one day it
	// holds the last in-window control time (within the operating window).
	clock := snap.Gauge(telemetry.MetricSimClockSeconds)
	if clock < DefaultConfig().WindowStart.Seconds() || clock > (24*time.Hour).Seconds() {
		t.Errorf("clock gauge = %v, want within the first day's window", clock)
	}

	soc, ok := snap.Histograms[telemetry.MetricSoC]
	if !ok {
		t.Fatal("SoC histogram missing")
	}
	// One in-window sample per node per tick: 10 h window, 6 nodes.
	window := DefaultConfig().WindowEnd - DefaultConfig().WindowStart
	want := int64(window/DefaultConfig().Tick) * int64(DefaultConfig().Nodes)
	if soc.Count != want {
		t.Errorf("SoC samples = %d, want %d", soc.Count, want)
	}
	// Seven finite bounds are the seven bins of Fig 19; SoC never exceeds
	// 1.0 so the implicit +Inf overflow bucket stays empty.
	if len(soc.Bounds) != 7 {
		t.Errorf("SoC histogram has %d bounds, want 7", len(soc.Bounds))
	}
	if overflow := soc.Counts[len(soc.Counts)-1]; overflow != 0 {
		t.Errorf("SoC overflow bucket = %d, want 0", overflow)
	}

	if got := snap.Gauge(telemetry.MetricFleetMinHealth); got <= 0 || got > 1 {
		t.Errorf("fleet min health gauge = %v, want in (0, 1]", got)
	}
}

// TestTelemetrySoCMatchesFig19Bins pins the telemetry SoC histogram to the
// engine's own Fig 19 bins: it is fed from the same shard-merged counts, so
// bucket i must equal socHist bin i exactly, and the +Inf bucket stays
// empty.
func TestTelemetrySoCMatchesFig19Bins(t *testing.T) {
	rec := telemetry.NewRecorder()
	s := newSim(t, "baat", func(c *Config) { c.Telemetry = rec })
	if s.cfg.Nodes != 6 {
		t.Fatalf("nodes = %d, want the 6-node prototype", s.cfg.Nodes)
	}
	if _, err := s.RunDay(solar.Cloudy); err != nil {
		t.Fatal(err)
	}
	soc := rec.Snapshot().Histograms[telemetry.MetricSoC]
	bins := s.socHist.Counts()
	if len(soc.Counts) != len(bins)+1 {
		t.Fatalf("telemetry has %d buckets, want %d bins + Inf", len(soc.Counts), len(bins))
	}
	for i, want := range bins {
		if soc.Counts[i] != want {
			t.Errorf("bucket %d = %d, want Fig 19 bin %d", i, soc.Counts[i], want)
		}
	}
	if inf := soc.Counts[len(bins)]; inf != 0 {
		t.Errorf("+Inf bucket = %d, want 0", inf)
	}
	if soc.Count != s.socHist.Total() {
		t.Errorf("count = %d, want %d", soc.Count, s.socHist.Total())
	}
	if soc.Sum <= 0 || soc.Sum > float64(soc.Count) {
		t.Errorf("sum = %v, want in (0, %d]", soc.Sum, soc.Count)
	}
}

// TestTelemetryNilRecorder ensures a full run with no recorder works and
// allocates no telemetry state.
func TestTelemetryNilRecorder(t *testing.T) {
	s := newSim(t, "baat")
	if s.tel != nil {
		t.Fatal("nil config produced a recorder")
	}
	if _, err := s.RunDay(solar.Rainy); err != nil {
		t.Fatal(err)
	}
}
