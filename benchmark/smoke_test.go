package main

import (
	"regexp"
	"runtime"
	"testing"
)

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecShape holds BENCHMARK.json to the rules its consumer enforces, so
// a bad edit fails here rather than as a refused benchmark.
func TestSpecShape(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
	}
}

// TestSmoke runs each workload for two seconds, untraced and traced, and
// requires every metric BENCHMARK.json declares to come out finite and with
// a unit, with no operation failed. -short keeps to the two workloads that
// between them touch every file of the harness but the fleet's.
func TestSmoke(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildPrograms(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	for _, w := range spec.Workloads {
		if testing.Short() && w.Name != "engine-shapes" && w.Name != "serve-mixed" {
			continue
		}
		for _, trace := range []bool{false, true} {
			cfg := &runCfg{root: root, bin: bin, seed: 1, seconds: 2, trace: trace, nproc: runtime.NumCPU()}
			out, err := workloads[w.Name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			metrics, err := spec.emit(trace, out.metrics)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			for name, m := range metrics {
				if m.Unit == "" {
					t.Errorf("%s trace=%v: %s has no unit", w.Name, trace, name)
				}
			}
			if out.attempted == 0 || out.failed != 0 || len(out.problems) != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed: %v", w.Name, trace, out.attempted, out.failed, out.problems)
			}
		}
	}
}
