package main

import (
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/kernel"
)

// hostRecord goes into every result file: a number is only comparable with
// another taken on the same host and build.
type hostRecord struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`       // dispatched distance kernel
	CPUFeatures string `json:"cpu_features"` // as CPUID reported them
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
	// OpenLoopConns is the load generator's connection (and goroutine) count
	// in open-loop windows, never above NProc; closed loops are one client.
	OpenLoopConns int `json:"open_loop_conns"`
}

func hostOf(cfg *runCfg) hostRecord {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostRecord{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Kernel:        kernel.Active(),
		CPUFeatures:   kernel.CPUFeatures(),
		Commit:        commit,
		Seed:          cfg.seed,
		OpenLoopConns: cfg.nproc,
	}
}
