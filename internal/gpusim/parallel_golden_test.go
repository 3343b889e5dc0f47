package gpusim_test

import (
	"fmt"
	"reflect"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/workloads"
)

// TestParallelMSHRCapacityInvariant checks Config.MSHRCapacity's contract:
// the knob bounds the MSHR table by pruning completed fills, which never
// changes results. Capacities 1 and 8 prune on almost every miss, so the
// golden benchmarks must give the same LaunchResults as at the default, on
// the serial engine and on the parallel one, whose shards prune as they
// settle the barrier's fills. Each benchmark runs its first
// capacityLaunches launches at the golden scale and seed (lbm's prune at
// the default capacity too): pruning scans the whole table, so full apps
// at capacity 1 take minutes under the race detector.
const capacityLaunches = 2

func TestParallelMSHRCapacityInvariant(t *testing.T) {
	for _, bench := range []string{"cfd", "mst", "stream", "lbm", "kmeans"} {
		spec, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		app := spec.Build(workloads.Config{Scale: 0.05, Seed: 7})
		unit := goldenUnitSize(app.TotalWarpInsts())
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", bench, workers), func(t *testing.T) {
				var want []*gpusim.LaunchResult
				for _, capacity := range []int{0, 1, 8} {
					cfg := gpusim.DefaultConfig()
					cfg.MSHRCapacity = capacity
					sim := gpusim.MustNew(cfg)
					for i, l := range app.Launches[:min(capacityLaunches, len(app.Launches))] {
						got := sim.RunLaunch(l, gpusim.RunOptions{FixedUnitInsts: unit, CollectBBV: true, Workers: workers})
						if capacity == 0 {
							want = append(want, got)
						} else if !reflect.DeepEqual(got, want[i]) {
							t.Fatalf("launch %d at MSHRCapacity %d differs from the default capacity", i, capacity)
						}
					}
				}
			})
		}
	}
}
