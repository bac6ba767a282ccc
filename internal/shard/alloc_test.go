package shard

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/testutil"
)

// Steady-state allocation regression for the sharded probe path: once a
// worker holds its probe, every merged neighborhood — per-shard locality
// searches (through the batched kernel scans), the precomputed candidate
// distances and the k-way merge — must be allocation-free, on both the
// small-block and the batched-span (blocks above kernel.BatchGrain)
// configurations.
func TestProbeNeighborhoodZeroAllocsSteadyState(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	pts := testutil.UniformPoints(6000, bounds, 45)
	queries := testutil.UniformPoints(128, bounds, 46)

	for _, tc := range []struct {
		name     string
		capacity int
	}{
		{name: "cells=16", capacity: 16},
		{name: "cells=128-batched", capacity: 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(st *geom.PointStore) (index.Index, error) {
				if st.Len() == 0 {
					return grid.NewFromStore(st, grid.Options{TargetPerCell: tc.capacity, Bounds: bounds})
				}
				return grid.NewFromStore(st, grid.Options{TargetPerCell: tc.capacity})
			}
			for _, policy := range []Policy{PolicyHash, PolicySpatial} {
				rel, err := New(pts, 3, policy, 0, build)
				if err != nil {
					t.Fatalf("building sharded relation: %v", err)
				}
				pr := acquire(nil, rel.Group())
				for _, q := range queries {
					pr.neighborhood(q, 16)
				}
				i := 0
				avg := testutil.AllocsPerRun(t, 200, func() {
					pr.neighborhood(queries[i%len(queries)], 16)
					i++
				})
				pr.release(nil)
				if avg != 0 {
					t.Errorf("policy %v: probe neighborhood allocates %v per call in steady state, want 0", policy, avg)
				}
			}
		})
	}
}
