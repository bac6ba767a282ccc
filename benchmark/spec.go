package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the declared command, workloads and metrics.
// The harness emits exactly the declared metrics and refuses to run a
// workload the file does not name, so the file and the code cannot drift.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// measured is one emitted metric on the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// emit selects the declared metrics (end-to-end with tracing off, per-layer
// with it on) from what the workload measured. A declared metric that the
// workload did not produce, or produced as NaN or Inf, is an error: the
// driver must never see a silently missing number.
func (s *benchSpec) emit(trace bool, got map[string]float64) (map[string]measured, error) {
	decls := s.EndToEnd
	if trace {
		decls = s.PerLayer
	}
	out := make(map[string]measured, len(decls))
	for _, d := range decls {
		if !nameRE.MatchString(d.Name) {
			return nil, fmt.Errorf("metric name %q breaks the naming rule", d.Name)
		}
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if !finite(v) {
			return nil, fmt.Errorf("metric %s measured as %v", d.Name, v)
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	return out, nil
}
