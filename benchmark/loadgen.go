package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// loop describes one window of load: workers take operations off a shared
// table in order and execute them.
//
// With rate > 0 the loop is open: operation i is due at start + i/rate no
// matter how the earlier ones fared, any free worker sends it, and its
// latency is timed from the due instant, so a stall also charges the
// requests that queued behind it. With rate == 0 the loop is closed: each
// worker sends its next operation when the previous one has completed.
type loop struct {
	ops     []op
	offset  int // index of the first operation to take (continues a previous window)
	workers int
	rate    float64
	dur     time.Duration

	// do executes operation o (table index i) on worker w and reports a
	// failed, refused, timed-out or wrong operation as an error. It may
	// return a follow-up that runs after the operation's clock has stopped
	// (an inline oracle check, a traced walk); the follow-up's error fails
	// the operation too.
	do func(w, i int, o *op) (after func() error, err error)

	// walk, when set, is handed every walkEvery-th successful operation
	// with its client-observed interval, after its clock has stopped: the
	// traced pass.
	walk func(o *op, from, done time.Time)
}

// window is what a loop measured.
type window struct {
	seconds   float64
	byKind    [numOpKinds][]sample
	ends      []float64 // completion instants of successful operations
	late      []float64 // open loop: how long after its due instant each operation was sent
	attempted int
	failed    int
	unsent    int // open loop: operations due inside the window that no worker got to
	taken     int // operations taken off the table (next window's offset)
	errs      []error
}

func (l loop) run() *window {
	start := time.Now()
	end := start.Add(l.dur)
	var next atomic.Int64
	next.Store(int64(l.offset))
	parts := make([]*window, l.workers)
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := &window{}
			parts[w] = part
			for {
				i := int(next.Add(1) - 1)
				o := &l.ops[i%len(l.ops)]
				from := time.Now()
				if l.rate > 0 {
					due := start.Add(time.Duration(float64(i-l.offset) / l.rate * float64(time.Second)))
					if !due.Before(end) {
						return
					}
					sleepUntil(due)
					part.late = append(part.late, time.Since(due).Seconds())
					from = due
				} else if !from.Before(end) {
					return
				}
				after, err := l.do(w, i, o)
				done := time.Now()
				if err == nil && after != nil {
					err = after()
				}
				part.attempted++
				if err != nil {
					part.failed++
					if len(part.errs) < 3 {
						part.errs = append(part.errs, err)
					}
					continue
				}
				if l.walk != nil && i%walkEvery == 0 {
					l.walk(o, from, done)
				}
				at := done.Sub(start).Seconds()
				part.byKind[o.kind] = append(part.byKind[o.kind], sample{at: at, dur: done.Sub(from).Seconds()})
				part.ends = append(part.ends, at)
			}
		}(w)
	}
	wg.Wait()

	out := &window{seconds: l.dur.Seconds(), taken: int(next.Load()) - l.workers}
	for _, p := range parts {
		for k := range p.byKind {
			out.byKind[k] = append(out.byKind[k], p.byKind[k]...)
		}
		out.ends = append(out.ends, p.ends...)
		out.late = append(out.late, p.late...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.errs = append(out.errs, p.errs...)
	}
	if l.rate > 0 {
		if due := int(l.dur.Seconds() * l.rate); due > out.attempted {
			out.unsent = due - out.attempted
		}
	}
	return out
}

// p50us is the median-of-segments median latency of a kind in microseconds.
func (w *window) p50us(k opKind) (float64, int) {
	v, n := p50(w.byKind[k], w.seconds)
	return v * 1e6, n
}

// opsPerSec is the median-of-segments completion rate.
func (w *window) opsPerSec() float64 { return segmentRate(w.ends, w.seconds) }

func (w *window) describe(name string) string {
	s := fmt.Sprintf("%s: %d attempted, %d failed", name, w.attempted, w.failed)
	if w.unsent > 0 {
		s += fmt.Sprintf(", %d never sent", w.unsent)
	}
	return s
}
