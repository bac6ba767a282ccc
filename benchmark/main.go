// Command benchmark is the repository's standing benchmark: four workloads,
// from the paper's query shapes in-process to a live knnshard fleet, each
// reporting the end-to-end metrics declared in BENCHMARK.json with tracing
// off and the per-layer metrics with it on. See README.md in this directory.
//
// The driver's form runs one workload and prints one JSON result line last:
//
//	bash benchmark/run.sh --workload serve-mixed --seed 7 --seconds 10 --trace 0
//
// Without --workload it runs the whole suite (every workload, untraced then
// traced) and prints every metric by name; -repeat-check runs the untraced
// suite twice and compares the two against the declared bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// workloads maps the names BENCHMARK.json declares onto their code.
var workloads = map[string]func(*runCfg) (*outcome, error){
	"engine-shapes":   runEngine,
	"serve-mixed":     runServeMixed,
	"serve-readwrite": runServeReadWrite,
	"fleet-scatter":   runFleet,
}

func main() {
	tightenTimerSlack()
	var (
		root        = flag.String("root", "", "checkout root (default: nearest parent holding BENCHMARK.json)")
		workload    = flag.String("workload", "", "run one workload and print its result line; empty runs the suite")
		seed        = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds     = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace       = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass and per-layer metrics")
		repeatCheck = flag.Bool("repeat-check", false, "run the untraced suite twice and compare against the declared bounds")
	)
	flag.Parse()

	// A signal must not orphan knnserve/knnshard children.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	if err := run(*root, *workload, *seed, *seconds, *trace != 0, *repeatCheck); err != nil {
		killAll()
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in any parent directory; pass -root")
		}
		dir = parent
	}
}

func run(rootFlag, workload string, seed int64, seconds float64, trace, repeatCheck bool) error {
	root, err := findRoot(rootFlag)
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	bin, err := buildPrograms(root)
	if err != nil {
		return err
	}
	cfg := &runCfg{root: root, bin: bin, seed: seed, seconds: seconds, trace: trace, nproc: runtime.NumCPU()}

	switch {
	case repeatCheck:
		return runRepeatCheck(spec, cfg)
	case workload == "":
		return runSuite(spec, cfg)
	}

	line, err := runOne(spec, cfg, workload)
	if err != nil {
		return err
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if !line.Correct {
		os.Exit(2)
	}
	return nil
}

// runOne runs one workload once, prints its report, writes its result (and
// trace) under benchmark/out/ and returns the result line.
func runOne(spec *benchSpec, cfg *runCfg, name string) (*resultLine, error) {
	fn, ok := workloads[name]
	if !ok || !spec.hasWorkload(name) {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	out, err := fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	metrics, err := spec.emit(cfg.trace, out.metrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("%s: no operation was attempted", name)
	}
	line := &resultLine{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	report(name, cfg, out, metrics)
	if err := writeResult(cfg, name, line, out); err != nil {
		return nil, err
	}
	return line, nil
}

// report prints every emitted metric by name with its unit, then the
// context lines (sample counts, oracle tallies) and any problem.
func report(name string, cfg *runCfg, out *outcome, metrics map[string]measured) {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, n := range out.notes {
		fmt.Println("  #", n)
	}
	for _, p := range out.problems {
		fmt.Println("  ! PROBLEM:", p)
	}
}

// resultFile is what a run leaves under benchmark/out/.
type resultFile struct {
	Workload string      `json:"workload"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Host     hostRecord  `json:"host"`
	Result   *resultLine `json:"result"`
	Notes    []string    `json:"notes"`
	Problems []string    `json:"problems,omitempty"`
}

func writeResult(cfg *runCfg, name string, line *resultLine, out *outcome) error {
	dir := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if cfg.trace {
		kind = "layers"
		if out.trace != nil {
			if err := out.trace.write(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				return err
			}
		}
	}
	data, err := json.MarshalIndent(resultFile{
		Workload: name, Seconds: cfg.seconds, Trace: cfg.trace, Host: hostOf(cfg),
		Result: line, Notes: out.notes, Problems: out.problems,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, kind+"-"+name+".json"), append(data, '\n'), 0o644)
}
