// Package baat is a library reproduction of BAAT — Battery Anti-Aging
// Treatment — the battery-aging-aware power-management framework for green
// datacenters from "BAAT: Towards Dynamically Managing Battery Aging in
// Green Datacenters" (DSN 2015).
//
// The library contains everything the paper's system needs, implemented
// from scratch on the standard library:
//
//   - an electrochemical lead-acid battery model with aging feedback
//     (Battery, BatterySpec, Degradation);
//   - the five system-level aging metrics of §III — NAT, CF, PC, DDT, DR —
//     plus a mechanism-level damage model and manufacturer cycle-life
//     curves (Metrics, MetricsTracker, AgingModel, CycleLife);
//   - the BAAT controller and the baseline policies of Table 4, selected
//     by name through an extensible policy registry (BuildPolicy,
//     RegisteredPolicies), including weighted-aging placement (Eq 6),
//     slowdown control (Fig 9), and planned aging (Eq 7);
//   - the simulated green-datacenter prototype of §V: solar supply, six
//     workloads, VMs with migration, DVFS-capable servers, per-server
//     battery nodes, and a discrete-time engine (Simulator);
//   - an experiment harness regenerating every evaluation figure and table
//     (Experiments, RunExperiment, RunAllExperiments).
//
// # Quick start
//
//	cfg := baat.DefaultSimConfig()
//	cfg.Policy = baat.PolicySpec{Name: "baat"}
//	sim, err := baat.NewSimulator(cfg)
//	if err != nil { ... }
//	result, err := sim.Run([]baat.Weather{baat.Sunny, baat.Cloudy, baat.Rainy})
//
// See examples/ for runnable scenarios and EXPERIMENTS.md for the
// paper-versus-measured record.
package baat

import (
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
)

// PolicySpec names a registered power-management scheme plus its option
// knobs — the serializable policy identity used by SimConfig, checkpoints,
// the experiment harness, and the control plane. Registered names include
// "ebuff", "baat-s", "baat-h", "baat", and "baat-f".
type PolicySpec = core.PolicySpec

// PolicyInfo describes one registered policy (name, display name, doc,
// option vocabulary).
type PolicyInfo = core.Info

// RegisteredPolicies lists every registered policy in Table 4 rank order.
func RegisteredPolicies() []PolicyInfo { return core.Registered() }

// ParsePolicySpec parses the CLI form "name[,key=value...]".
func ParsePolicySpec(s string) (PolicySpec, error) { return core.ParsePolicySpec(s) }

// Policy is a battery power-management scheme driving a node fleet.
type Policy = core.Policy

// PolicyConfig parameterizes policy construction.
type PolicyConfig = core.Config

// SlowdownConfig parameterizes the aging-slowdown algorithm (Fig 9).
type SlowdownConfig = core.SlowdownConfig

// PlannedAgingConfig enables DoD-goal regulation (§IV-D, Eq 7).
type PlannedAgingConfig = core.PlannedAgingConfig

// DefaultPolicyConfig returns the paper's parameters.
func DefaultPolicyConfig() PolicyConfig { return core.DefaultConfig() }

// BuildPolicy constructs a registered policy from its spec.
func BuildPolicy(spec PolicySpec) (Policy, error) {
	return core.Build(spec)
}

// ErrNoCapacity is returned by Policy.PlaceVM when no node can host a VM.
var ErrNoCapacity = core.ErrNoCapacity

// Simulator replays the prototype: a solar-powered fleet of battery nodes
// running VM-hosted workloads under a policy.
type Simulator = sim.Simulator

// SimConfig parameterizes a simulation.
type SimConfig = sim.Config

// SimResult is the outcome of a simulation run.
type SimResult = sim.Result

// DayStats summarizes one simulated day.
type DayStats = sim.DayStats

// NodeSummary is the end-of-run state of one battery node.
type NodeSummary = sim.NodeSummary

// BatteryShare is one block of a mixed battery fleet (SimConfig.
// BatteryFleet): a model tier and the fraction of the fleet it covers.
type BatteryShare = sim.BatteryShare

// DefaultSimConfig mirrors the prototype: six nodes, one-minute ticks,
// 08:30–18:30 operating window.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewSimulator builds a simulator running the policy named by cfg.Policy.
func NewSimulator(cfg SimConfig) (*Simulator, error) {
	return sim.New(cfg)
}

// Weather classifies a day's solar potential.
type Weather = solar.Weather

// The three weather conditions of §VI-A (daily budgets 8/6/3 kWh).
const (
	Sunny  = solar.Sunny
	Cloudy = solar.Cloudy
	Rainy  = solar.Rainy
)

// Location models a deployment site by its sunshine fraction (§VI-C).
type Location = solar.Location

// SolarConfig shapes generated solar days.
type SolarConfig = solar.Config

// SolarDay is one generated day of solar supply.
type SolarDay = solar.Day

// DailyBudget returns the paper's measured daily generation for a weather
// condition at prototype scale.
func DailyBudget(w Weather) WattHour { return solar.DailyBudget(w) }

// LifetimePrediction is one node's projected battery end-of-life.
type LifetimePrediction = core.LifetimePrediction

// PredictLifetimes projects battery end-of-life for a fleet from its
// observed damage rates (§I: BAAT "proactively predicts battery lifetime").
func PredictLifetimes(nodes []*Node) []LifetimePrediction {
	return core.PredictLifetimes(&core.Context{Nodes: nodes})
}
