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
	}
	for in, want := range cases {
		got, err := twoknn.ParseIndexKind(in)
		if err != nil || got != want {
			t.Errorf("twoknn.ParseIndexKind(%q) = %v, %v", in, got, err)
		}
	}
	for _, in := range []string{"btree", "rtree", "kdtree"} {
		if _, err := twoknn.ParseIndexKind(in); err == nil {
			t.Errorf("twoknn.ParseIndexKind(%q) must error", in)
		}
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
