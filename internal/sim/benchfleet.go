package sim

import (
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/solar"
)

// BenchFleetTick is the simulated tick of every BenchFleet fleet; it sets
// the ticks-per-day factor in a node-steps/s derivation.
const BenchFleetTick = 5 * time.Minute

// largeFleetNodes is where BenchFleet switches to warehouse provisioning:
// direct service attachment instead of the O(VMs × nodes) placement pass,
// and a trimmed per-node power-table history so the row slab stays within
// a sane footprint (the default 2048-row table is sized for week-long
// six-node traces, not 65k-node step benchmarks).
const largeFleetNodes = 16384

// BenchFleet builds the fleet the step benchmarks time — BenchmarkFleetStep
// and the perf suite's fleet_step entries: e-Buff on the given battery tier,
// no job arrivals, and one node in four hosting a persistent service, so a
// day mixes the powered and scheduled-off step paths like a real
// consolidated datacenter. One sunny warm-up day runs before it returns,
// keeping the one-off service placement out of the timed days.
func BenchFleet(nodes, workers int, model battery.Kind) (*Simulator, error) {
	cfg := DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: "ebuff"}
	cfg.Nodes = nodes
	cfg.Workers = workers
	cfg.Tick = BenchFleetTick
	ncfg, err := cfg.Node.WithBatteryModel(model)
	if err != nil {
		return nil, err
	}
	cfg.Node = ncfg
	cfg.JobsPerDay = 0
	cfg.ServiceVMs = nodes / 4
	cfg.Solar.Scale = 1.5 * float64(nodes) / 6
	warehouse := nodes >= largeFleetNodes
	if warehouse {
		cfg.ServiceVMs = 0 // attached directly below
		cfg.Node.TableCapacity = 64
		if nodes >= 1<<20 {
			cfg.Node.TableCapacity = 16
		}
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if warehouse {
		// Same workload mix the policy would produce — one service VM per
		// four nodes, spread across the fleet — without the quadratic
		// placement pass, which at 65k+ nodes would dominate setup.
		if err := s.ProvisionServices(nodes / 4); err != nil {
			return nil, err
		}
	}
	if _, err := s.RunDay(solar.Sunny); err != nil {
		return nil, err
	}
	return s, nil
}
