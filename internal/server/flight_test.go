package server

// White-box tests of the per-dataset admission-gate override and the
// dataset spec grammar's max_inflight segment.

import (
	"testing"

	twoknn "repro"
	"repro/internal/dataload"
)

// TestRegisterInflightOverride checks the three DatasetOptions.MaxInflight
// regimes against the server-wide default.
func TestRegisterInflightOverride(t *testing.T) {
	sp, err := dataload.Parse("uniform:n=50,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sp.Points()
	if err != nil {
		t.Fatal(err)
	}
	rel := func(name string) *twoknn.Relation {
		r, err := twoknn.NewRelation(name, pts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	s := New(Config{MaxInflight: 4})
	for name, o := range map[string]DatasetOptions{
		"inherit":  {},
		"override": {MaxInflight: 2},
		"ungated":  {MaxInflight: -1},
	} {
		if err := s.RegisterWithOptions(name, rel(name), o); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]int{"inherit": 4, "override": 2, "ungated": 0} {
		d := s.lookup(name)
		if got := cap(d.gate); got != want {
			t.Errorf("dataset %q: gate capacity %d, want %d", name, got, want)
		}
		if want == 0 && d.gate != nil {
			t.Errorf("dataset %q: expected no gate", name)
		}
	}
}

// TestSplitDatasetArgOptions covers the max_inflight spec grammar.
func TestSplitDatasetArgOptions(t *testing.T) {
	name, spec, opts, err := SplitDatasetArgOptions("trips=uniform:n=100,seed=1,max_inflight=8")
	if err != nil {
		t.Fatal(err)
	}
	if name != "trips" || spec.N != 100 || spec.Seed != 1 || opts.MaxInflight != 8 {
		t.Fatalf("parsed name=%q spec=%+v opts=%+v", name, spec, opts)
	}

	// The segment works anywhere in the option list, and a negative value
	// (gate disabled) parses.
	_, _, opts, err = SplitDatasetArgOptions("trips=uniform:max_inflight=-1,n=100,seed=1")
	if err != nil || opts.MaxInflight != -1 {
		t.Fatalf("mid-list segment: opts=%+v err=%v", opts, err)
	}

	// No segment: zero value, spec untouched.
	_, spec, opts, err = SplitDatasetArgOptions("trips=uniform:n=100,seed=1")
	if err != nil || opts.MaxInflight != 0 || spec.N != 100 {
		t.Fatalf("plain spec: spec=%+v opts=%+v err=%v", spec, opts, err)
	}

	// Zero and non-numeric values are rejected.
	for _, bad := range []string{
		"trips=uniform:n=100,max_inflight=0",
		"trips=uniform:n=100,max_inflight=lots",
	} {
		if _, _, _, err := SplitDatasetArgOptions(bad); err == nil {
			t.Errorf("%q: expected an error", bad)
		}
	}
}
