// Package bench defines the benchmark harness that regenerates every figure
// of the paper's evaluation section (Figures 19–26): workload construction,
// the competing plans of each experiment, parameter sweeps, and a text
// reporter that prints the series in the paper's layout.
//
// The harness is shared by the repository's testing.B benchmarks
// (bench_test.go at the module root) and the cmd/knnbench executable. Two
// scales are built in: ScaleCI (reduced cardinalities; same qualitative
// shape, minutes to run) and ScalePaper (the paper's cardinalities; long).
package bench

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataload"
	"repro/internal/geom"
	"repro/internal/index/grid"
)

// Bounds is the common region all benchmark workloads live in, mirroring a
// city extent.
var Bounds = geom.NewRect(0, 0, 10000, 10000)

// Scale selects experiment cardinalities.
type Scale string

// The available scales.
const (
	// ScaleCI uses reduced cardinalities that preserve each figure's shape
	// and finish in minutes.
	ScaleCI Scale = "ci"

	// ScalePaper uses the paper's cardinalities (up to 2 560 000 points);
	// conceptual baselines take a long time at this scale by design.
	ScalePaper Scale = "paper"
)

// ParseScale validates a scale name.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScaleCI, ScalePaper:
		return Scale(s), nil
	default:
		return "", fmt.Errorf("bench: unknown scale %q (want %q or %q)", s, ScaleCI, ScalePaper)
	}
}

// datasetCache memoizes generated point sets and built relations: the same
// workload is shared by the series runner and the testing.B benchmarks, and
// across the rows of a sweep.
var datasetCache = struct {
	sync.Mutex
	points    map[string][]geom.Point
	relations map[string]*core.Relation
}{
	points:    make(map[string][]geom.Point),
	relations: make(map[string]*core.Relation),
}

// BerlinMODPoints returns n snapshot points from the BerlinMOD-substitute
// simulation. role decorrelates datasets that appear in one experiment (the
// outer and inner relations must not be identical); the same (role, n)
// always returns the same points.
func BerlinMODPoints(role string, n int) []geom.Point {
	key := fmt.Sprintf("bm/%s/%d", role, n)
	datasetCache.Lock()
	defer datasetCache.Unlock()
	if pts, ok := datasetCache.points[key]; ok {
		return pts
	}
	seed := int64(len(role)*7919) + int64(n)
	for _, ch := range role {
		seed = seed*131 + int64(ch)
	}
	pts, err := dataload.Spec{Kind: dataload.BerlinMOD, N: n, Seed: seed, Bounds: Bounds}.Points()
	if err != nil {
		panic(fmt.Sprintf("bench: generating BerlinMOD points: %v", err)) // static config; cannot fail
	}
	datasetCache.points[key] = pts
	return pts
}

// ClusteredPoints returns numClusters non-overlapping clusters of perCluster
// points each (the Section 6.2 synthetic layout), memoized per parameters.
func ClusteredPoints(role string, numClusters, perCluster int, radius float64) []geom.Point {
	key := fmt.Sprintf("cl/%s/%d/%d/%g", role, numClusters, perCluster, radius)
	datasetCache.Lock()
	defer datasetCache.Unlock()
	if pts, ok := datasetCache.points[key]; ok {
		return pts
	}
	seed := int64(numClusters*1009 + perCluster)
	for _, ch := range role {
		seed = seed*131 + int64(ch)
	}
	pts, err := dataload.Spec{
		Kind:       dataload.Clustered,
		Clusters:   numClusters,
		PerCluster: perCluster,
		Radius:     radius,
		Bounds:     Bounds,
		Seed:       seed,
	}.Points()
	if err != nil {
		panic(fmt.Sprintf("bench: generating clustered points: %v", err)) // parameters are fixed per experiment
	}
	datasetCache.points[key] = pts
	return pts
}

// UniformPoints returns n uniform points, memoized per (role, n).
func UniformPoints(role string, n int) []geom.Point {
	key := fmt.Sprintf("un/%s/%d", role, n)
	datasetCache.Lock()
	defer datasetCache.Unlock()
	if pts, ok := datasetCache.points[key]; ok {
		return pts
	}
	seed := int64(n)
	for _, ch := range role {
		seed = seed*131 + int64(ch)
	}
	pts, err := dataload.Spec{Kind: dataload.Uniform, N: n, Seed: seed, Bounds: Bounds}.Points()
	if err != nil {
		panic(fmt.Sprintf("bench: generating uniform points: %v", err)) // static config; cannot fail
	}
	datasetCache.points[key] = pts
	return pts
}

// DefaultPerCell is the grid-cell point target of every benchmark relation
// (the paper-faithful 16-point grain).
const DefaultPerCell = 16

// Relation builds (and memoizes) a grid-indexed relation over the named
// workload at DefaultPerCell points per cell. All benchmark relations share
// the common Bounds so block geometries are comparable, as in the paper's
// single-grid setup.
func Relation(key string, pts []geom.Point) *core.Relation {
	datasetCache.Lock()
	defer datasetCache.Unlock()
	if rel, ok := datasetCache.relations[key]; ok {
		return rel
	}
	ix, err := grid.New(pts, grid.Options{TargetPerCell: DefaultPerCell, Bounds: Bounds})
	if err != nil {
		panic(fmt.Sprintf("bench: building relation %s: %v", key, err)) // bounds are fixed; cannot fail
	}
	rel := core.NewRelation(ix)
	datasetCache.relations[key] = rel
	return rel
}

// BerlinMODRelation is Relation over BerlinMODPoints.
func BerlinMODRelation(role string, n int) *core.Relation {
	return Relation(fmt.Sprintf("bm/%s/%d", role, n), BerlinMODPoints(role, n))
}

// ClusteredRelation is Relation over ClusteredPoints.
func ClusteredRelation(role string, numClusters, perCluster int, radius float64) *core.Relation {
	return Relation(fmt.Sprintf("cl/%s/%d/%d/%g", role, numClusters, perCluster, radius),
		ClusteredPoints(role, numClusters, perCluster, radius))
}

// ResetCache clears memoized datasets and relations (tests use it to bound
// memory).
func ResetCache() {
	datasetCache.Lock()
	defer datasetCache.Unlock()
	datasetCache.points = make(map[string][]geom.Point)
	datasetCache.relations = make(map[string]*core.Relation)
}
