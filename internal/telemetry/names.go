package telemetry

// Canonical metric names. Every instrumented package records under these
// constants so that dashboards, tests, and docs/OBSERVABILITY.md agree on
// spelling; the help strings below become the /metrics HELP lines.
const (
	// Simulation engine (internal/sim).
	MetricSimTicks              = "baat_sim_ticks_total"
	MetricSimDays               = "baat_sim_days_total"
	MetricSimJobsSubmitted      = "baat_sim_jobs_submitted_total"
	MetricSimPlacements         = "baat_sim_vm_placements_total"
	MetricSimPlacementsDeferred = "baat_sim_vm_placements_deferred_total"
	MetricSimClockSeconds       = "baat_sim_clock_seconds"
	MetricSimControlSeconds     = "baat_sim_control_duration_seconds"
	MetricSoC                   = "baat_soc_ratio"

	// Fleet health (internal/sim, refreshed every control period).
	MetricFleetMinHealth = "baat_fleet_min_health_ratio"
	MetricFleetAvgSoC    = "baat_fleet_avg_soc_ratio"

	// Policy decisions (internal/core).
	MetricMigrations        = "baat_policy_migrations_total"
	MetricMigrationFailures = "baat_policy_migration_failures_total"
	MetricDVFSCaps          = "baat_policy_dvfs_caps_total"
	MetricDVFSRestores      = "baat_policy_dvfs_restores_total"
	MetricDoDAdjusts        = "baat_policy_dod_adjusts_total"
	MetricDoDGoal           = "baat_policy_dod_goal_ratio"

	// Battery model (internal/battery).
	MetricBatteryDischargeSteps = "baat_battery_discharge_steps_total"
	MetricBatteryChargeSteps    = "baat_battery_charge_steps_total"
	MetricBatteryRestSteps      = "baat_battery_rest_steps_total"
	MetricBatteryCutoffs        = "baat_battery_cutoffs_total"
	MetricBatteryEOL            = "baat_battery_eol_total"

	// Node power routing (internal/node).
	MetricNodeDarkTicks    = "baat_node_dark_ticks_total"
	MetricNodeUtilityTicks = "baat_node_utility_ticks_total"

	// Fault injection and graceful degradation (internal/faults wired
	// through sim and node).
	MetricFaultsInjected      = "baat_faults_injected_total"
	MetricNodeSensorRejected  = "baat_node_sensor_rejected_total"
	MetricNodeSensorMissed    = "baat_node_sensor_missed_total"
	MetricFleetSuspectNodes   = "baat_fleet_suspect_nodes"
	MetricDegradedTransitions = "baat_sim_degraded_transitions_total"
)

// helpText is the HELP line served for each canonical metric. Metrics
// registered under ad-hoc names are exposed without a HELP line.
var helpText = map[string]string{
	MetricSimTicks:              "Simulation ticks stepped across all days.",
	MetricSimDays:               "Simulated days completed.",
	MetricSimJobsSubmitted:      "Workload VMs enqueued (services and batch jobs).",
	MetricSimPlacements:         "VM placements accepted by the policy.",
	MetricSimPlacementsDeferred: "VM placements deferred for lack of capacity (retried each control period).",
	MetricSimClockSeconds:       "Simulated clock in seconds.",
	MetricSimControlSeconds:     "Wall-clock duration of one policy Control invocation in seconds.",
	MetricSoC:                   "Per-node state-of-charge samples inside the operating window (the seven bins of Fig 19).",
	MetricFleetMinHealth:        "Lowest battery health across the fleet (end-of-life at 0.8, DSN'15 §II-B).",
	MetricFleetAvgSoC:           "Mean battery state of charge across the fleet.",
	MetricMigrations:            "VM migrations issued by the power-management policy (Figs 8/9).",
	MetricMigrationFailures:     "VM migrations that failed and rolled back.",
	MetricDVFSCaps:              "Downward DVFS steps applied to protect at-risk batteries (Fig 9).",
	MetricDVFSRestores:          "Upward DVFS steps after battery recovery past trigger plus hysteresis.",
	MetricDoDAdjusts:            "Planned-aging DoD-goal recomputations (Eq 7).",
	MetricDoDGoal:               "Latest fleet-average planned-aging DoD goal (Eq 7).",
	MetricBatteryDischargeSteps: "Battery pack discharge steps executed.",
	MetricBatteryChargeSteps:    "Battery pack charge steps executed.",
	MetricBatteryRestSteps:      "Battery pack rest (idle) steps executed.",
	MetricBatteryCutoffs:        "Discharge steps truncated by the under-voltage/empty protection cutoff (§II-B).",
	MetricBatteryEOL:            "Batteries that crossed the 80% health end-of-life line.",
	MetricNodeDarkTicks:         "Ticks a server spent dark because neither solar, battery, nor utility could carry it (§VI-E).",
	MetricNodeUtilityTicks:      "Ticks a server drew utility power (UtilityBackup only).",
	MetricFaultsInjected:        "Fault activations delivered by the deterministic injector (docs/FAULTS.md).",
	MetricNodeSensorRejected:    "Battery sensor samples rejected as implausible by the aging tracker's input hardening.",
	MetricNodeSensorMissed:      "Battery sensor samples lost before reaching the aging tracker (dropped readings).",
	MetricFleetSuspectNodes:     "Nodes whose aging metrics are currently quarantined as untrustworthy.",
	MetricDegradedTransitions:   "Node transitions into or out of degraded (metrics-suspect) mode.",
}

// Help returns the canonical help string for a metric name ("" when the
// name is not canonical).
func Help(name string) string { return helpText[name] }
