package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// buildPrograms compiles knnserve and knnshard from the checkout into
// .bench_build/bin and returns that directory. With a warm build cache it
// only re-checks staleness.
func buildPrograms(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/knnserve", "./cmd/knnshard")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building knnserve/knnshard: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one started program.
type proc struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after done
}

// running tracks every live child so that any exit path can kill them all.
var running struct {
	sync.Mutex
	procs map[*proc]bool
}

// freeAddr picks a loopback port nobody listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches a program listening on a harness-chosen port. The child
// leads its own process group (so a failure path can kill the whole group)
// and is killed by the kernel if the harness dies first.
func start(bin, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, addr: addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	running.Lock()
	if running.procs == nil {
		running.procs = make(map[*proc]bool)
	}
	running.procs[p] = true
	running.Unlock()
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// healthDeadline bounds start-up: the largest dataset generates in ~3s.
const healthDeadline = 60 * time.Second

// waitHealthy polls /healthz until it answers 200, the child exits, or the
// deadline passes.
func (p *proc) waitHealthy() error {
	deadline := time.Now().Add(healthDeadline)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.err, p.stderr.String())
		default:
		}
		if _, err := getBody(p.addr, "/healthz"); err == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v\n%s", p.name, healthDeadline, p.stderr.String())
}

// peakRSSMB reads the child's high-water resident set.
func (p *proc) peakRSSMB() float64 { return peakRSSMB(p.cmd.Process.Pid) }

func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// metrics scrapes a knnserve's /metrics.
func (p *proc) metrics() (*server.MetricsResponse, error) {
	body, err := getBody(p.addr, "/metrics")
	if err != nil {
		return nil, err
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", p.name, err)
	}
	return &m, nil
}

// stop asks the child to drain (SIGTERM) and requires a clean exit; a child
// that lingers or exits non-zero has its whole group killed and is an error.
func (p *proc) stop() error {
	defer p.forget()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.kill()
		<-p.done
		return fmt.Errorf("%s ignored SIGTERM for 20s; killed", p.name)
	}
	if p.err != nil {
		return fmt.Errorf("%s exited uncleanly: %v\n%s", p.name, p.err, p.stderr.String())
	}
	return nil
}

// stopServer is stop for a knnserve, first checking that no searcher handle
// leaked: every dataset must report outstanding_searchers == 0 when idle.
func (p *proc) stopServer() error {
	m, merr := p.metrics()
	err := p.stop()
	if merr != nil {
		return errors.Join(merr, err)
	}
	for name, d := range m.Datasets {
		if d.OutstandingSearchers != 0 {
			err = errors.Join(err, fmt.Errorf("%s: dataset %s has %d outstanding searchers when idle", p.name, name, d.OutstandingSearchers))
		}
	}
	return err
}

func (p *proc) kill() {
	// Negative pid: the whole process group the child leads.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
}

// abandon kills a child that never became usable and waits for it.
func (p *proc) abandon() {
	p.kill()
	<-p.done
	p.forget()
}

func (p *proc) forget() {
	running.Lock()
	delete(running.procs, p)
	running.Unlock()
}

// killAll is the failure path: nothing the harness started may outlive it.
func killAll() {
	running.Lock()
	procs := make([]*proc, 0, len(running.procs))
	for p := range running.procs {
		procs = append(procs, p)
	}
	running.Unlock()
	for _, p := range procs {
		p.abandon()
	}
}
