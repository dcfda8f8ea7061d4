package sim

// BenchmarkFleetStep measures the per-tick node-physics fan-out at
// production fleet sizes (the ROADMAP's "as fast as the hardware allows"
// axis). Fleets of 16 through 65536 nodes — warehouse scale, 1M with
// -long — run one simulated day per iteration, serially and across all
// CPUs, so `-bench=FleetStep` reports the parallel speedup directly. The
// equivalence tests in parallel_test.go guarantee the two variants compute
// identical results; this benchmark only measures wall time.
//
// CI runs it with `-benchtime=1x` (see check.sh bench-smoke); use the
// default benchtime for stable speedup numbers.

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/solar"
)

// longFleet gates the warehouse-upper-bound size: a million nodes is a
// multi-minute benchmark, opt-in via `go test -bench=FleetStep -long`.
var longFleet = flag.Bool("long", false, "include the 1M-node fleet benchmark size")

func BenchmarkFleetStep(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	sizes := []int{16, 256, 2048, 16384, 65536}
	if *longFleet {
		sizes = append(sizes, 1<<20)
	}
	for _, nodes := range sizes {
		for _, workers := range workerCounts {
			name := fmt.Sprintf("nodes=%d/workers=%d", nodes, workers)
			b.Run(name, func(b *testing.B) {
				s, err := BenchFleet(nodes, workers, battery.KindLeadAcid)
				if err != nil {
					b.Fatal(err)
				}
				ticksPerDay := int(24 * time.Hour / BenchFleetTick)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.RunDay(solar.Cloudy); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				steps := float64(b.N*ticksPerDay*nodes) / b.Elapsed().Seconds()
				b.ReportMetric(steps, "node-steps/s")
			})
		}
	}
}
