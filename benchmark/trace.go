package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	twoknn "repro"
	"repro/internal/locality"
	"repro/internal/server"
)

// span is one traced interval. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0 for a request's root).
type span struct {
	Req    int     `json:"req"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Kind   string  `json:"kind"` // the operation the request was
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// traceLog keeps spans in memory and writes them out when the run ends.
// Tracing lives entirely in the harness: spans are recorded around calls
// into each layer's public functions, never inside the program.
type traceLog struct {
	Workload string `json:"workload"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`

	mu sync.Mutex
	t0 time.Time
}

func newTraceLog(workload string) *traceLog {
	return &traceLog{Workload: workload, t0: time.Now(),
		Note: "A root span is the client-observed request. Its descendants are the same request walked by hand " +
			"through the layers' public functions right after the real one completed, laid end to end from the " +
			"root's start; what they leave uncovered is what a walk cannot reach: sockets, net/http, scheduling."}
}

func (t *traceLog) add(req, parent int, name, layer string, kind opKind, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, span{Req: req, ID: id, Parent: parent, Name: name, Layer: layer, Kind: kind.String(),
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3, End: float64(end.Sub(t.t0).Nanoseconds()) / 1e3})
	return id
}

func (t *traceLog) write(path string) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns, per layer, the summed self time (a span's duration
// minus its children's) over the requests of one operation kind, and the
// summed duration of their roots.
func (t *traceLog) selfTimes(kind opKind) (byLayer map[string]float64, roots float64, requests int) {
	children := make(map[int]float64)
	for _, s := range t.Spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byLayer = make(map[string]float64)
	for _, s := range t.Spans {
		if s.Kind != kind.String() {
			continue
		}
		// A replayed child can outlast a parent that was itself fast; the
		// negative self time stays in the sum, so the layers' shares of one
		// kind always add up to exactly 1.
		byLayer[s.Layer] += s.End - s.Start - children[s.ID]
		if s.Parent == 0 {
			roots += s.End - s.Start
			requests++
		}
	}
	return byLayer, roots, requests
}

// Layer names of spans. "client" is the harness's own request encode;
// "unattributed" is a root's self time.
const (
	layerUnattributed = "unattributed"
	layerClient       = "client"
	layerServer       = "server"
	layerEngine       = "twoknn"
	layerLocality     = "locality"
	layerRemote       = "remote"
)

// probeRecorder is an http.RoundTripper that records one span per round
// trip while armed: the remote layer's probes, seen from the coordinator's
// side of the wire.
type probeRecorder struct {
	base http.RoundTripper

	mu    sync.Mutex
	armed bool
	trips [][2]time.Time
}

func (p *probeRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := p.base.RoundTrip(r)
	t1 := time.Now()
	p.mu.Lock()
	if p.armed {
		p.trips = append(p.trips, [2]time.Time{t0, t1})
	}
	p.mu.Unlock()
	return resp, err
}

func (p *probeRecorder) arm() {
	p.mu.Lock()
	p.armed, p.trips = true, p.trips[:0]
	p.mu.Unlock()
}

func (p *probeRecorder) disarm() [][2]time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = false
	return append([][2]time.Time(nil), p.trips...)
}

// walker re-executes a request by hand, stage by stage, recording a span
// per stage. For a served workload the stages are: client encode → the
// whole handler in-process (server.Handler().ServeHTTP into a recorder: the
// stack minus sockets) with, inside it, request decode and the engine call,
// so the handler's self time is admission, row rendering and response
// encode. The engine call in turn has a child where a lower layer can be
// called directly: the locality searcher for a select on a local relation,
// the recorded round trips for a remote one.
type walker struct {
	log    *traceLog
	src    sources
	b      bind
	served bool

	handler  http.Handler       // in-process server over src; nil when !served
	searcher *locality.Searcher // over main's points; nil for a remote main
	probes   *probeRecorder     // non-nil for a remote main

	mu       sync.Mutex // one walk at a time: searcher and probe recorder are single-user
	requests int
	handlerS []float64 // in-process handler seconds of walked selects
}

// newWalker builds the in-process stand-ins a walk needs. Registering the
// sources in an in-process server builds its render tables (for a remote
// main: fetches every point from the shards), so this is set-up, not
// measurement.
func newWalker(log *traceLog, src sources, b bind, served bool, searcher *locality.Searcher, probes *probeRecorder) (*walker, error) {
	wk := &walker{log: log, src: src, b: b, served: served, searcher: searcher, probes: probes}
	if !served {
		return wk, nil
	}
	srv := server.New(server.Config{})
	for name, s := range map[string]twoknn.Source{b.main: src.main, b.sites: src.sites, b.innerOuter: src.innerOuter, b.depots: src.depots} {
		if name == "" || s == nil {
			continue
		}
		if err := srv.Register(name, s); err != nil {
			return nil, fmt.Errorf("in-process server: %w", err)
		}
	}
	wk.handler = srv.Handler()
	return wk, nil
}

// typed returns an empty request struct of the operation's route.
func typed(k opKind) server.Request {
	switch k {
	case opSelect:
		return &server.KNNSelectRequest{}
	case opTwoSelects:
		return &server.TwoSelectsRequest{}
	case opOuterJoin:
		return &server.SelectOuterJoinRequest{}
	case opInnerJoin:
		return &server.SelectInnerJoinRequest{}
	case opBatch:
		return &server.KNNSelectBatchRequest{}
	case opUnchained:
		return &server.UnchainedJoinsRequest{}
	default:
		return &server.ChainedJoinsRequest{}
	}
}

// walk records the real request [from, done] as a root span and replays it
// underneath. It runs after the operation's clock has stopped.
func (wk *walker) walk(o *op, from, done time.Time) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	wk.requests++
	req := wk.requests
	root := wk.log.add(req, 0, "request."+o.kind.String(), layerUnattributed, o.kind, from, done)
	cursor := from
	parent := root

	if wk.served {
		t0 := time.Now()
		body := wk.b.encode(o)
		d := time.Since(t0)
		wk.log.add(req, root, "client.encode", layerClient, o.kind, cursor, cursor.Add(d))
		cursor = cursor.Add(d)

		hr := httptest.NewRequest(http.MethodPost, opPaths[o.kind], bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 = time.Now()
		wk.handler.ServeHTTP(rec, hr)
		d = time.Since(t0)
		parent = wk.log.add(req, root, "server.handler", layerServer, o.kind, cursor, cursor.Add(d))
		if o.kind == opSelect {
			wk.handlerS = append(wk.handlerS, d.Seconds())
		}

		t0 = time.Now()
		_ = server.DecodeRequestBytes(body, typed(o.kind))
		d = time.Since(t0)
		wk.log.add(req, parent, "server.decode", layerServer, o.kind, cursor, cursor.Add(d))
		cursor = cursor.Add(d)
	}

	// A handler evaluates under a deadline and with per-request counters;
	// the in-process workload calls the engine bare. The replay does as the
	// original did.
	var opts []twoknn.QueryOption
	if wk.served {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		opts = []twoknn.QueryOption{twoknn.WithContext(ctx), twoknn.WithStats(new(twoknn.Stats))}
	}
	if wk.probes != nil {
		wk.probes.arm()
	}
	t0 := time.Now()
	_, _ = wk.src.run(o, opts...)
	d := time.Since(t0)
	engine := wk.log.add(req, parent, "twoknn."+o.kind.String(), layerEngine, o.kind, cursor, cursor.Add(d))
	if wk.probes != nil {
		for _, trip := range wk.probes.disarm() {
			wk.log.add(req, engine, "remote.probe", layerRemote, o.kind, cursor.Add(trip[0].Sub(t0)), cursor.Add(trip[1].Sub(t0)))
		}
	} else if wk.searcher != nil && o.kind == opSelect {
		t0 = time.Now()
		wk.searcher.Neighborhood(o.f, selectK, nil)
		d = time.Since(t0)
		wk.log.add(req, engine, "locality.neighborhood", layerLocality, o.kind, cursor, cursor.Add(d))
	}
}

// traceShares turns the trace into the per-layer share metrics of select
// requests and prints every kind's breakdown.
func (wk *walker) traceShares(out *outcome) {
	for k := opKind(0); k < numOpKinds; k++ {
		byLayer, roots, n := wk.log.selfTimes(k)
		if n == 0 {
			continue
		}
		layers := make([]string, 0, len(byLayer))
		for l := range byLayer {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		line := fmt.Sprintf("trace %s (%d walked, client-observed mean %.1fus):", k, n, roots/float64(n))
		for _, l := range layers {
			line += fmt.Sprintf(" %s %.1f%%", l, 100*byLayer[l]/roots)
		}
		out.notes = append(out.notes, line)
		if k == opSelect {
			for _, l := range []string{layerClient, layerServer, layerEngine, layerLocality, layerRemote, layerUnattributed} {
				out.set("trace.select_"+l+"_share", byLayer[l]/roots)
			}
		}
	}
	if _, ok := out.metrics["trace.select_"+layerUnattributed+"_share"]; !ok {
		out.problemf("the traced window walked no select")
	}
}
