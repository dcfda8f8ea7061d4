package baat

import (
	"github.com/green-dc/baat/internal/faults"
)

// FaultsConfig configures the deterministic fault injector: a seed (zero
// derives the simulation seed + 4) and a list of fault rules. Assign it to
// SimConfig.Faults or ExperimentConfig.Faults; an empty config injects
// nothing.
type FaultsConfig = faults.Config

// FaultRule schedules one fault: a kind, a target node (-1 = every node),
// and either a fixed day/time window or a per-tick activation probability.
type FaultRule = faults.Rule

// FaultKind names an injectable fault class.
type FaultKind = faults.Kind

// The injectable fault kinds: sensor-chain corruption (the controller's
// view goes bad, the physics stay truthful), battery degradation shocks,
// power-supply disturbances, and agent disconnects (no effect; see below).
const (
	// SensorStuck repeats the last delivered reading.
	SensorStuck = faults.SensorStuck
	// SensorNaN reports NaN current; the tracker rejects and quarantines.
	SensorNaN = faults.SensorNaN
	// SensorNoise perturbs current/SoC/temperature readings.
	SensorNoise = faults.SensorNoise
	// SensorDrop delivers nothing; the feed goes stale.
	SensorDrop = faults.SensorDrop
	// BatteryCapacityLoss is a sudden capacity-fade shock.
	BatteryCapacityLoss = faults.BatteryCapacityLoss
	// BatteryResistanceGrowth is a sudden internal-resistance shock.
	BatteryResistanceGrowth = faults.BatteryResistanceGrowth
	// BatteryPrematureEOL drops a pack to a target health in one shock.
	BatteryPrematureEOL = faults.BatteryPrematureEOL
	// PVDropout derates the shared solar feed for a window.
	PVDropout = faults.PVDropout
	// UtilityBrownout gates the utility-backup path for a window.
	UtilityBrownout = faults.UtilityBrownout
	// AgentDisconnect has no consumer; it is kept so the chaos profile's
	// RNG schedule, and with it the faulted golden trace, stays fixed.
	AgentDisconnect = faults.AgentDisconnect
)

// FaultProfile returns a named preset fault schedule ("none", "sensor",
// "battery", "power", "chaos"/"mixed") with the given injector seed (zero
// keeps the seed-derivation default).
func FaultProfile(name string, seed int64) (FaultsConfig, error) {
	return faults.Profile(name, seed)
}

// FaultProfileNames lists the built-in fault profiles.
func FaultProfileNames() []string { return faults.ProfileNames() }
