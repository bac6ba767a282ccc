package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// runCfg is one invocation's settings.
type runCfg struct {
	root    string
	bin     string // directory holding knnserve and knnshard
	seed    int64
	seconds float64
	trace   bool
	nproc   int // load-generator connections never exceed this
}

// window lengths derived from -seconds.
func (c *runCfg) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// warmup precedes every measured window and is not part of -seconds: it
// fills the searcher pools, the result cache and the keep-alive connections.
const warmup = time.Second

// setupRepeats is how many times a run sets the program up; setup_s is the
// median, so one slow start does not move it.
const setupRepeats = 3

// checkEvery: every 64th operation of each kind is compared with the oracle.
const checkEvery = 64

// walkEvery: in a traced window every 16th operation is also walked by hand.
const walkEvery = 16

// outcome is what one workload run produced.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // anything that makes the run incorrect
	notes     []string // sample counts and other context for the printed report
	trace     *traceLog
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// count folds a window's operation counts and failures into the outcome.
func (o *outcome) count(name string, w *window) {
	o.attempted += w.attempted
	o.failed += w.failed + w.unsent
	o.notes = append(o.notes, w.describe(name))
	for _, err := range w.errs {
		o.problemf("%s: %v", name, err)
	}
}

// latencies records the per-kind medians and the select tail. Only three of
// them are end-to-end metrics: on this shared two-core host a p99, and the
// medians of the two operations a run sees only a hundred times (innerjoin,
// batch), differ between identical runs by more than any bound the driver
// accepts, so those are per-layer metrics, emitted by the traced run.
func (o *outcome) latencies(w *window) {
	for _, m := range []struct {
		name  string
		kind  opKind
		scale float64
	}{
		{"select_p50_us", opSelect, 1e6},
		{"twoselects_p50_us", opTwoSelects, 1e6},
		{"outerjoin_p50_us", opOuterJoin, 1e6},
		{"innerjoin_p50_ms", opInnerJoin, 1e3},
		{"batch_p50_us", opBatch, 1e6},
	} {
		v, n := p50(w.byKind[m.kind], w.seconds)
		o.set(m.name, v*m.scale)
		o.notef("%s over %d samples", m.name, n)
	}
	v, n, ok := tail(w.byKind[opSelect], w.seconds, 0.99)
	o.set("select_p99_us", v*1e6)
	o.notef("select_p99_us %.1f over %d samples (ten beyond it in every segment: %v)", v*1e6, n, ok)
}

// checkItem is one answer kept for the oracle: the served response body, or
// the in-process result.
type checkItem struct {
	o    *op
	body []byte
	res  result
}

// markChecks flags every checkEvery-th operation of each kind, first one
// included, so even a rare kind is checked at least once.
func markChecks(ops []op) []bool {
	marks := make([]bool, len(ops))
	var seen [numOpKinds]int
	for i := range ops {
		marks[i] = seen[ops[i].kind]%checkEvery == 0
		seen[ops[i].kind]++
	}
	return marks
}

// served executes operations against a knnserve over keep-alive
// connections, one per worker, and keeps the marked responses for the
// oracle. Read-only datasets are checked after the window, so the oracle's
// CPU time does not compete with the program being measured.
type served struct {
	addr  string
	conns []*conn
	marks []bool
	src   sources

	mu      sync.Mutex
	pending []checkItem
}

func newServed(addr string, workers int, ops []op, src sources) (*served, error) {
	s := &served{addr: addr, marks: markChecks(ops), src: src}
	for w := 0; w < workers; w++ {
		c, err := dial(addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

func (s *served) close() {
	for _, c := range s.conns {
		c.close()
	}
}

// request sends one operation on worker w's connection and returns the
// response body (valid until the worker's next request). Anything but a 200
// is an error.
func (s *served) request(w int, o *op) ([]byte, error) {
	status, body, err := s.conns[w].post(opPaths[o.kind], o.body)
	if err != nil {
		// The connection is in an unknown state; replace it so one failure
		// does not fail every later operation of this worker.
		s.conns[w].close()
		if c, derr := dial(s.addr); derr == nil {
			s.conns[w] = c
		}
		return nil, fmt.Errorf("%s: %w", o.kind, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", o.kind, status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *served) do(w, i int, o *op) (func() error, error) {
	body, err := s.request(w, o)
	if err != nil {
		return nil, err
	}
	if s.marks[i%len(s.marks)] {
		item := checkItem{o: o, body: bytes.Clone(body)}
		s.mu.Lock()
		s.pending = append(s.pending, item)
		s.mu.Unlock()
	}
	return nil, nil
}

// verify runs the oracle over the kept responses and reports the wrong
// ones; each counts as a failed operation.
func (s *served) verify(out *outcome) {
	s.mu.Lock()
	items := s.pending
	s.pending = nil
	s.mu.Unlock()
	wrong := 0
	for _, it := range items {
		if err := s.src.checkServed(it.o, it.body); err != nil {
			wrong++
			if wrong <= 3 {
				out.problemf("oracle: %v", err)
			}
		}
	}
	out.failed += wrong
	out.notef("oracle checked %d responses, %d wrong", len(items), wrong)
}

// quantileOf takes a quantile of unsorted values.
func quantileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
