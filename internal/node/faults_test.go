package node

// Unit tests for the node's fault surface: sensor corruption feeding the
// tracker (not the physics), the suspect/quarantine state machine, utility
// gating under injected brownouts, and battery wear shocks.

import (
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/powernet"
	"github.com/green-dc/baat/internal/workload"
)

// stepTicks advances the node under a light load for the given tick count.
func stepTicks(t *testing.T, n *Node, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		if _, err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNaNSensorQuarantinesImmediately(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 3) // establish a clean baseline
	if n.MetricsSuspect() {
		t.Fatal("clean node marked suspect")
	}
	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeNaN})
	stepTicks(t, n, 1)
	if n.SensorRejected() == 0 {
		t.Error("tracker accepted a NaN sample")
	}
	if !n.MetricsSuspect() {
		t.Error("node not quarantined after a rejected sample")
	}
	// The power table must never hold a NaN row (it is JSON-marshaled in
	// checkpoints); the rejected tick records a sanitized
	// bad-quality row instead.
	last, ok := n.PowerTable().Last()
	if !ok {
		t.Fatal("no power table row recorded")
	}
	if math.IsNaN(float64(last.Current)) || math.IsNaN(float64(last.Voltage)) {
		t.Errorf("NaN leaked into the power table: %+v", last)
	}
	if last.Quality != powernet.QualityBad {
		t.Errorf("rejected sample quality = %v, want QualityBad", last.Quality)
	}
}

func TestDroppedSensorGoesStaleAfterThreshold(t *testing.T) {
	n := newNode(t, func(c *Config) { c.StaleAfter = 3 })
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 2)
	rows := n.PowerTable().Len()
	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeDrop})

	// Below the stale threshold: missed but not yet quarantined.
	stepTicks(t, n, 2)
	if n.MetricsSuspect() {
		t.Error("quarantined before StaleAfter consecutive misses")
	}
	// Third consecutive miss crosses the threshold.
	stepTicks(t, n, 1)
	if !n.MetricsSuspect() {
		t.Error("not quarantined after StaleAfter consecutive misses")
	}
	if n.SensorDropped() != 3 {
		t.Errorf("dropped = %d, want 3", n.SensorDropped())
	}
	// Dropped readings record nothing.
	if got := n.PowerTable().Len(); got != rows {
		t.Errorf("power table grew by %d rows during a dropped feed", got-rows)
	}
}

func TestQuarantineExpiresAfterCleanSamples(t *testing.T) {
	n := newNode(t, func(c *Config) { c.SensorQuarantine = 5 * time.Minute })
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 1)
	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeNaN})
	stepTicks(t, n, 1)
	if !n.MetricsSuspect() {
		t.Fatal("not quarantined")
	}
	n.SetSensorFault(faults.SensorFault{}) // sensor recovers
	stepTicks(t, n, 4)
	if !n.MetricsSuspect() {
		t.Error("quarantine lifted early: only 4 minutes of a 5-minute window elapsed")
	}
	stepTicks(t, n, 2)
	if n.MetricsSuspect() {
		t.Error("quarantine never expired after clean samples")
	}
}

func TestStuckSensorFreezesTrackerNotPhysics(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v", workload.KMeans)
	stepTicks(t, n, 5)
	socBefore := n.Battery().SoC()

	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeStuck})
	stepTicks(t, n, 30)

	// The physics keep moving: the true SoC keeps falling under load,
	// while the sensor chain keeps reporting the frozen pre-fault reading.
	socAfter := n.Battery().SoC()
	if socAfter >= socBefore {
		t.Error("physics froze with the sensor: SoC did not move")
	}
	last, ok := n.PowerTable().Last()
	if !ok {
		t.Fatal("no power table row recorded")
	}
	if math.Abs(last.SoC-socBefore) > 1e-6 {
		t.Errorf("stuck row SoC = %v, want frozen pre-fault value %v", last.SoC, socBefore)
	}
	if math.Abs(last.SoC-socAfter) < 1e-9 {
		t.Error("stuck row tracks the live SoC; the sensor view should be frozen")
	}
	// Ground-truth aging is unaffected: the model observed the true
	// samples, so health keeps decaying.
	if n.AgingModel().Degradation().CapacityFade <= 0 {
		t.Error("aging model saw no damage despite real discharge")
	}
	// Stuck samples are plausible, so no quarantine — but the power table
	// flags them suspect.
	if n.MetricsSuspect() {
		t.Error("stuck sensor quarantined the node (plausible samples should pass)")
	}
	if last, ok := n.PowerTable().Last(); !ok || last.Quality != powernet.QualitySuspect {
		t.Errorf("stuck reading quality = %v, want QualitySuspect", last.Quality)
	}
}

func TestNoisySensorMarksRowsSuspect(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 1)
	n.SetSensorFault(faults.SensorFault{
		Mode:  faults.ModeNoise,
		Sigma: 0.2,
		Noise: [3]float64{1.5, -0.5, 0.25},
	})
	stepTicks(t, n, 1)
	last, ok := n.PowerTable().Last()
	if !ok {
		t.Fatal("no row recorded")
	}
	if last.Quality != powernet.QualitySuspect {
		t.Errorf("noisy reading quality = %v, want QualitySuspect", last.Quality)
	}
}

func TestUtilityGatingDuringBrownout(t *testing.T) {
	n := newNode(t, func(c *Config) { c.UtilityBackup = true })
	if !n.UtilityAvailable() {
		t.Fatal("utility not available with UtilityBackup set")
	}
	n.SetUtilityAvailable(false)
	if n.UtilityAvailable() {
		t.Error("utility still available during injected brownout")
	}
	n.SetUtilityAvailable(true)
	if !n.UtilityAvailable() {
		t.Error("utility did not come back after the brownout")
	}
	// Without the backup config the flag must stay false regardless.
	bare := newNode(t)
	bare.SetUtilityAvailable(true)
	if bare.UtilityAvailable() {
		t.Error("utility reported available without UtilityBackup")
	}
}

func TestInjectBatteryWear(t *testing.T) {
	n := newNode(t)
	healthBefore := n.Stats().Health
	n.InjectBatteryWear(0.10, 0.5, 0)
	healthAfter := n.Stats().Health
	if healthAfter >= healthBefore {
		t.Errorf("health %v -> %v: capacity-loss shock had no effect", healthBefore, healthAfter)
	}
	// The shock must land close to the requested fade.
	if diff := healthBefore - healthAfter; diff < 0.05 || diff > 0.15 {
		t.Errorf("health dropped by %v, want ~0.10", diff)
	}
	deg := n.AgingModel().Degradation()
	if deg.ResistanceGrowth < 0.5 {
		t.Errorf("resistance growth %v, want >= 0.5", deg.ResistanceGrowth)
	}
}
