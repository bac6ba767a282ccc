package main

import (
	"fmt"
	"math"
	"os"
)

// runSuite runs every declared workload, untraced then traced, one after
// another, printing every metric by name.
func runSuite(spec *benchSpec, cfg *runCfg) error {
	correct := true
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			c := *cfg
			c.trace = trace
			line, err := runOne(spec, &c, w.Name)
			if err != nil {
				return err
			}
			correct = correct && line.Correct
		}
	}
	if !correct {
		fmt.Println("suite: at least one workload was incorrect")
		os.Exit(2)
	}
	return nil
}

// runRepeatCheck runs the untraced suite twice on the same binaries and
// prints, per end-to-end metric and workload, both values, their relative
// difference in the metric's worse direction and the declared bound. It
// exits non-zero if any pair disagrees beyond its bound.
func runRepeatCheck(spec *benchSpec, cfg *runCfg) error {
	c := *cfg
	c.trace = false
	var runs [2]map[string]*resultLine
	for r := range runs {
		runs[r] = make(map[string]*resultLine)
		for _, w := range spec.Workloads {
			line, err := runOne(spec, &c, w.Name)
			if err != nil {
				return err
			}
			runs[r][w.Name] = line
		}
	}
	fmt.Printf("\n%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	ok := true
	for _, w := range spec.Workloads {
		a, b := runs[0][w.Name], runs[1][w.Name]
		ok = ok && a.Correct && b.Correct
		for _, d := range spec.EndToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := ""
			if diff > d.Bound {
				verdict = "  BEYOND BOUND"
				ok = false
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("repeat-check: the two runs disagree beyond a declared bound, or one was incorrect")
		os.Exit(2)
	}
	return nil
}
