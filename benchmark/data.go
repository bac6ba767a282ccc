package main

import (
	"fmt"
	"math/rand"

	twoknn "repro"
	"repro/internal/dataload"
	"repro/internal/server"
)

// Fixed query parameters: an operation name means the same thing in every
// workload, so its latency can be compared across them.
const (
	selectK     = 10
	twoSelK1    = 10
	twoSelK2    = 640
	twoSelShift = 30 // f2 = f1 + (30, -30)
	joinK       = 10 // kSel and kJoin of both select-joins
	unchainedAB = 2
	unchainedCB = 10
	chainedAB   = 4
	chainedBC   = 4
	batchFocals = 64
	batchPool   = 4096 // distinct focals a batch draws from, Zipf(1.1)
	focalJitter = 50.0 // focals are a data point moved by at most this
	writePoints = 640  // one write = insert this many, then remove as many
)

// specs are the dataset specifications a run hands to the programs; the
// harness generates the same points from the same strings for its oracle.
//
// The datasets are the same in every run: -seed draws the query stream
// (focals, operation order, batch draws, the writer's points), not the data.
// Join costs depend on where the generator happens to put its clusters, so
// seeding the data too made runs with different seeds differ by more than
// any regression bound could absorb; ten seeds must measure one system.
type specs struct {
	trips, sites, depots, kiosks, live string
}

func specsFor(tripsN int) specs {
	return specs{
		trips:  fmt.Sprintf("berlinmod:n=%d,seed=11", tripsN),
		sites:  "uniform:n=20000,seed=12",
		depots: "clustered:clusters=4,per=500,seed=13",
		kiosks: "clustered:clusters=1,per=200,seed=14",
		live:   "berlinmod:n=50000,seed=15",
	}
}

func loadPoints(spec string) ([]twoknn.Point, error) {
	sp, err := dataload.Parse(spec)
	if err != nil {
		return nil, err
	}
	return sp.Points()
}

// newRelation builds the in-process relation of a spec the way knnserve
// does (grid index, default block capacity).
func newRelation(name, spec string) (*twoknn.Relation, error) {
	pts, err := loadPoints(spec)
	if err != nil {
		return nil, fmt.Errorf("dataset %s (%s): %w", name, spec, err)
	}
	return twoknn.NewRelation(name, pts)
}

// newRelations builds one relation per (name, spec) pair, in order.
func newRelations(nameSpec ...string) ([]*twoknn.Relation, error) {
	rels := make([]*twoknn.Relation, 0, len(nameSpec)/2)
	for i := 0; i+1 < len(nameSpec); i += 2 {
		r, err := newRelation(nameSpec[i], nameSpec[i+1])
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
	}
	return rels, nil
}

type opKind int

const (
	opSelect opKind = iota
	opTwoSelects
	opOuterJoin
	opInnerJoin
	opBatch
	opUnchained
	opChained
	numOpKinds
)

var opNames = [numOpKinds]string{"select", "twoselects", "outerjoin", "innerjoin", "batch", "unchained", "chained"}

var opPaths = [numOpKinds]string{
	"/v1/query/knn-select", "/v1/query/two-selects", "/v1/query/select-outer-join",
	"/v1/query/select-inner-join", "/v1/query/knn-select-batch",
	"/v1/query/unchained-joins", "/v1/query/chained-joins",
}

func (k opKind) String() string { return opNames[k] }

// bind names the datasets an operation reads in one workload.
type bind struct {
	main       string // selects, batches, and the inner side of both select-joins
	sites      string // outer of outerjoin; C of unchained, B of chained
	innerOuter string // outer of innerjoin
	depots     string // A of unchained and chained
}

// op is one generated operation. body is its request as the served
// workloads send it; the in-process workload calls the engine with the same
// fields.
type op struct {
	kind   opKind
	f      twoknn.Point
	focals []twoknn.Point
	body   []byte
}

// opGen draws operations from the run's seed. Focals follow the data (a
// random point of the main relation, jittered), as in the paper's Fig. 26:
// queries are posted where the data is.
type opGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	pts  []twoknn.Point
	pool []twoknn.Point
	b    bind
}

func newOpGen(seed int64, pts []twoknn.Point, b bind) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed)), pts: pts, b: b}
	g.pool = make([]twoknn.Point, batchPool)
	for i := range g.pool {
		g.pool[i] = g.focal()
	}
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, batchPool-1)
	return g
}

func (g *opGen) focal() twoknn.Point {
	p := g.pts[g.rng.Intn(len(g.pts))]
	return twoknn.Point{
		X: p.X + (g.rng.Float64()*2-1)*focalJitter,
		Y: p.Y + (g.rng.Float64()*2-1)*focalJitter,
	}
}

func pointArg(p twoknn.Point) server.PointArg { return server.PointArg{X: p.X, Y: p.Y} }

// next generates one operation of the given kind; encode adds the request
// body.
func (g *opGen) next(kind opKind, encode bool) op {
	o := op{kind: kind}
	if kind == opBatch {
		o.focals = make([]twoknn.Point, batchFocals)
		for i := range o.focals {
			o.focals[i] = g.pool[g.zipf.Uint64()]
		}
	} else {
		o.f = g.focal()
	}
	if encode {
		o.body = g.b.encode(&o)
	}
	return o
}

func (b bind) encode(o *op) []byte {
	var req server.Request
	switch o.kind {
	case opSelect:
		req = &server.KNNSelectRequest{Dataset: b.main, F: pointArg(o.f), K: selectK}
	case opTwoSelects:
		req = &server.TwoSelectsRequest{Dataset: b.main, F1: pointArg(o.f), K1: twoSelK1,
			F2: server.PointArg{X: o.f.X + twoSelShift, Y: o.f.Y - twoSelShift}, K2: twoSelK2}
	case opOuterJoin:
		req = &server.SelectOuterJoinRequest{Outer: b.sites, Inner: b.main, F: pointArg(o.f), KSel: joinK, KJoin: joinK}
	case opInnerJoin:
		req = &server.SelectInnerJoinRequest{Outer: b.innerOuter, Inner: b.main, F: pointArg(o.f), KJoin: joinK, KSel: joinK}
	case opBatch:
		fs := make([]server.PointArg, len(o.focals))
		for i, f := range o.focals {
			fs[i] = pointArg(f)
		}
		req = &server.KNNSelectBatchRequest{Dataset: b.main, Focals: fs, K: selectK}
	case opUnchained:
		req = &server.UnchainedJoinsRequest{A: b.depots, B: b.main, C: b.sites, KAB: unchainedAB, KCB: unchainedCB}
	case opChained:
		req = &server.ChainedJoinsRequest{A: b.depots, B: b.sites, C: b.main, KAB: chainedAB, KBC: chainedBC}
	}
	body, err := server.EncodeRequest(req)
	if err != nil {
		panic(err) // fixed struct types; cannot fail
	}
	return body
}

// weighted is one entry of a traffic mix.
type weighted struct {
	kind  opKind
	share int // out of the mix's total
}

// servedMix is the read mix of both single-server workloads. unchained and
// chained are left out: their multi-megabyte responses would measure the
// socket, not the server.
var servedMix = []weighted{{opSelect, 80}, {opTwoSelects, 8}, {opOuterJoin, 6}, {opBatch, 4}, {opInnerJoin, 2}}

// mixOps draws n operations from a weighted mix.
func (g *opGen) mixOps(mix []weighted, n int) []op {
	total := 0
	for _, w := range mix {
		total += w.share
	}
	ops := make([]op, n)
	for i := range ops {
		r := g.rng.Intn(total)
		kind := mix[0].kind
		for _, w := range mix {
			if r < w.share {
				kind = w.kind
				break
			}
			r -= w.share
		}
		ops[i] = g.next(kind, true)
	}
	return ops
}

// cycleOps repeats a fixed cycle (kind × count, in order) until n
// operations exist.
func (g *opGen) cycleOps(cycle []weighted, n int, encode bool) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, w := range cycle {
			for i := 0; i < w.share; i++ {
				ops = append(ops, g.next(w.kind, encode))
			}
		}
	}
	return ops
}
