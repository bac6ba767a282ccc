// Command knnbench regenerates the figures of the paper's evaluation
// section (Figures 19–26) as text tables: for every figure it runs the
// competing query evaluation plans over the benchmark workloads, verifies
// that all plans return identical result cardinalities, and prints the
// measured series next to the paper's expected qualitative outcome. Two
// ablations about the paper's algorithms ride the same harness: abl-preprocess
// (Procedure 3's contour stop) and abl-index (index-agnosticism). The systems
// layers around the algorithms are timed by the standing benchmark only
// (bash benchmark/run.sh, metrics in BENCHMARK.json).
//
// Usage:
//
//	knnbench                    # run every figure at the reduced CI scale
//	knnbench -fig 19            # run one figure
//	knnbench -fig 19,abl-index  # run a subset, figures and ablations mixed
//	knnbench -scale paper       # the paper's cardinalities (slow by design:
//	                            # the conceptual baselines are the point)
//	knnbench -stats             # append operation-counter columns
//	knnbench -json out.json     # also write the results as machine-readable
//	                            # JSON (the BENCH_PR*.json schema)
//	knnbench -timeout 10m       # bound the run's wall-clock budget: once it
//	                            # elapses, no further experiment starts, the
//	                            # partial JSON report is still written, and
//	                            # the command exits non-zero
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		figFlag     = flag.String("fig", "", "comma-separated figure numbers or ablation ids to run (e.g. \"19,26,abl-index\"); empty = all figures")
		scaleFlag   = flag.String("scale", "ci", "workload scale: \"ci\" (reduced, minutes) or \"paper\" (full cardinalities)")
		statsFlag   = flag.Bool("stats", false, "print machine-independent operation counters per plan")
		jsonFlag    = flag.String("json", "", "path to write the results as machine-readable JSON")
		timeoutFlag = flag.Duration("timeout", 0, "wall-clock budget for the whole run, checked between experiments (0 = no limit); on expiry the partial JSON report is still written and the exit code is non-zero")
	)
	flag.Parse()

	if err := run(*figFlag, *scaleFlag, *statsFlag, *jsonFlag, *timeoutFlag); err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
}

func run(figs, scaleName string, withStats bool, jsonPath string, timeout time.Duration) error {
	scale, err := bench.ParseScale(scaleName)
	if err != nil {
		return err
	}

	selected, err := selectExperiments(figs)
	if err != nil {
		return err
	}

	// The -timeout budget is cooperative at experiment granularity: a started
	// experiment runs to completion (its plans must agree on cardinalities to
	// be reportable), but no new experiment starts past the deadline.
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}

	var timedOut error
	var results []*bench.Result
	for i, e := range selected {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			var skipped []string
			for _, s := range selected[i:] {
				skipped = append(skipped, s.ID)
			}
			timedOut = fmt.Errorf("-timeout %v exceeded; skipped %s", timeout, strings.Join(skipped, ", "))
			break
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("running %s ...\n", e.ID)
		res, err := bench.Run(e, scale)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		if withStats {
			printStats(res)
		}
		if jsonPath != "" {
			results = append(results, res)
		}
	}
	if jsonPath != "" && len(results) > 0 {
		if err := bench.NewJSONReport(scale, results).WriteFile(jsonPath); err != nil {
			return err
		}
		fmt.Printf("\nwrote JSON report to %s\n", jsonPath)
	}
	return timedOut
}

func selectExperiments(figs string) ([]bench.Experiment, error) {
	if figs == "" {
		return bench.Experiments, nil
	}
	var out []bench.Experiment
	for _, tok := range strings.Split(figs, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		id := tok
		if !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "abl") {
			id = "fig" + id
		}
		e, ok := bench.AnyByID(id)
		if !ok {
			var known []string
			for _, k := range bench.Experiments {
				known = append(known, k.ID)
			}
			for _, k := range bench.Ablations {
				known = append(known, k.ID)
			}
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", tok, strings.Join(known, ", "))
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return out, nil
}

func printStats(res *bench.Result) {
	fmt.Println("\noperation counters (machine-independent evidence):")
	for _, row := range res.Rows {
		for _, name := range res.PlanNames() {
			fmt.Printf("  %s=%s %-18s %s\n", res.Experiment.XLabel, row.X, name, row.Stats[name])
		}
	}
}
