package main

import (
	"testing"

	twoknn "repro"
	"repro/internal/server"
)

func TestParseIndexKind(t *testing.T) {
	cases := map[string]twoknn.IndexKind{
		"grid":     twoknn.GridIndex,
		"quadtree": twoknn.QuadtreeIndex,
		"rtree":    twoknn.RTreeIndex,
		"kdtree":   twoknn.KDTreeIndex,
	}
	for in, want := range cases {
		got, err := server.ParseIndexKind(in)
		if err != nil || got != want {
			t.Errorf("server.ParseIndexKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := server.ParseIndexKind("btree"); err == nil {
		t.Errorf("unknown index kind must error")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]twoknn.Algorithm{
		"auto":          twoknn.AlgorithmAuto,
		"conceptual":    twoknn.AlgorithmConceptual,
		"counting":      twoknn.AlgorithmCounting,
		"block-marking": twoknn.AlgorithmBlockMarking,
	}
	for in, want := range cases {
		got, err := server.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("server.ParseAlgorithm(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := server.ParseAlgorithm("magic"); err == nil {
		t.Errorf("unknown algorithm must error")
	}
}

func TestRunRejectsUnknownQuery(t *testing.T) {
	err := run(params{query: "teleport", index: "grid", alg: "auto", kJoin: 1, kSel: 1, genN: 10})
	if err == nil {
		t.Fatalf("unknown query must error")
	}
}
