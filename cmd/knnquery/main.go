// Command knnquery runs a spatial query with two kNN predicates over CSV
// point files (or generated data) and prints the result together with the
// EXPLAIN tree of the chosen plan and its operation counters.
//
// Query shapes (the -query flag):
//
//	select-inner-join   (E1 ⋈kNN E2) ∩ (E1 × σ_{kSel,f}(E2))   -outer -inner -fx -fy -kjoin -ksel
//	select-outer-join   (σ_{kSel,f}(E1)) ⋈kNN E2               -outer -inner -fx -fy -kjoin -ksel
//	unchained           (A⋈B) ∩B (C⋈B)                          -outer=A -inner=B -third=C -kjoin -ksel(=kCB)
//	chained             A→B→C                                   -outer=A -inner=B -third=C -kjoin(=kAB) -ksel(=kBC)
//	two-selects         σ_{k1,f1}(E) ∩ σ_{k2,f2}(E)             -outer=E -fx -fy -f2x -f2y -kjoin(=k1) -ksel(=k2)
//
// Point files are CSV "x,y" lines (see cmd/datagen). When a file flag is
// empty, a deterministic BerlinMOD-substitute dataset is generated instead,
// so the command is runnable with no inputs at all:
//
//	knnquery -query select-inner-join -kjoin 2 -ksel 2 -fx 5000 -fy 5000
//
// Batched execution: -batch focals.csv switches to the batched kNN-select
// driver — every line of the file is one focal point, k comes from -kjoin,
// and the relation is -outer (or generated). With -addr host:port the batch
// is instead POSTed to a running knnserve's /v1/query/knn-select-batch route
// (-dataset names the server-side dataset), exercising its result cache:
//
//	knnquery -batch focals.csv -kjoin 10
//	knnquery -batch focals.csv -kjoin 10 -addr 127.0.0.1:8080 -dataset trips
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	twoknn "repro"
	"repro/internal/dataload"
	"repro/internal/server"
)

func main() {
	var (
		query = flag.String("query", "select-inner-join", "query shape: select-inner-join, select-outer-join, unchained, chained, two-selects")
		outer = flag.String("outer", "", "CSV file for the outer relation (E1/A/E); empty generates data")
		inner = flag.String("inner", "", "CSV file for the inner relation (E2/B); empty generates data")
		third = flag.String("third", "", "CSV file for the third relation (C); empty generates data")
		fx    = flag.Float64("fx", 5000, "focal point x (first predicate)")
		fy    = flag.Float64("fy", 5000, "focal point y (first predicate)")
		f2x   = flag.Float64("f2x", 5100, "second focal point x (two-selects)")
		f2y   = flag.Float64("f2y", 4900, "second focal point y (two-selects)")
		kJoin = flag.Int("kjoin", 2, "k of the join (or k1 for two-selects)")
		kSel  = flag.Int("ksel", 2, "k of the select (kCB/kBC for two joins, k2 for two-selects)")
		alg   = flag.String("algorithm", "auto", "strategy for *-inner-join: auto (block-marking, then counting in the contributing blocks), conceptual, counting, block-marking")
		index = flag.String("index", "grid", "index kind: grid or quadtree")
		limit = flag.Int("limit", 20, "maximum result rows to print (0 = all)")
		genN  = flag.Int("gen-n", 20000, "points per generated relation when a file flag is empty")
		batch = flag.String("batch", "", "CSV file of focal points: run a batched kNN-select (k from -kjoin) over -outer instead of -query")
		addr  = flag.String("addr", "", "host:port of a running knnserve; with -batch, POST to its /v1/query/knn-select-batch route instead of evaluating in-process")
		dset  = flag.String("dataset", "", "server-side dataset name for -addr mode")
	)
	flag.Parse()

	p := params{
		query: *query, outer: *outer, inner: *inner, third: *third,
		f1: twoknn.Point{X: *fx, Y: *fy}, f2: twoknn.Point{X: *f2x, Y: *f2y},
		kJoin: *kJoin, kSel: *kSel, alg: *alg, index: *index, limit: *limit, genN: *genN,
		batch: *batch, addr: *addr, dataset: *dset,
	}
	err := error(nil)
	if p.batch != "" {
		err = runBatch(p)
	} else {
		err = run(p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnquery:", err)
		os.Exit(1)
	}
}

type params struct {
	query, outer, inner, third string
	f1, f2                     twoknn.Point
	kJoin, kSel                int
	alg, index                 string
	limit, genN                int
	batch, addr, dataset       string
}

func run(p params) error {
	kind, err := twoknn.ParseIndexKind(p.index)
	if err != nil {
		return err
	}
	algorithm, err := server.ParseAlgorithm(p.alg)
	if err != nil {
		return err
	}

	// Datasets load through the same spec/build path the query server uses
	// (internal/server + internal/dataload): an empty file flag falls back
	// to a generated BerlinMOD-substitute spec.
	load := func(name, path string, seed int64) (twoknn.Source, error) {
		spec := dataload.FileSpec(path)
		if path == "" {
			spec = dataload.Spec{Kind: dataload.BerlinMOD, N: p.genN, Seed: seed}
		}
		src, err := server.BuildSource(name, spec, server.BuildOptions{Index: kind})
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: %d points (%s)\n", name, src.Len(), spec)
		return src, nil
	}

	var explain string
	var st twoknn.Stats
	opts := []twoknn.QueryOption{
		twoknn.WithAlgorithm(algorithm),
		twoknn.WithExplain(&explain),
		twoknn.WithStats(&st),
	}

	switch p.query {
	case "select-inner-join", "select-outer-join":
		outer, err := load("outer", p.outer, 1)
		if err != nil {
			return err
		}
		inner, err := load("inner", p.inner, 2)
		if err != nil {
			return err
		}
		var pairs []twoknn.Pair
		if p.query == "select-inner-join" {
			pairs, err = twoknn.SelectInnerJoin(outer, inner, p.f1, p.kJoin, p.kSel, opts...)
		} else {
			pairs, err = twoknn.SelectOuterJoin(outer, inner, p.f1, p.kSel, p.kJoin, opts...)
		}
		if err != nil {
			return err
		}
		printPlanAndStats(explain, &st)
		printPairs(pairs, p.limit)

	case "unchained", "chained":
		a, err := load("A", p.outer, 1)
		if err != nil {
			return err
		}
		b, err := load("B", p.inner, 2)
		if err != nil {
			return err
		}
		c, err := load("C", p.third, 3)
		if err != nil {
			return err
		}
		var triples []twoknn.Triple
		if p.query == "unchained" {
			triples, err = twoknn.UnchainedJoins(a, b, c, p.kJoin, p.kSel, opts...)
		} else {
			triples, err = twoknn.ChainedJoins(a, b, c, p.kJoin, p.kSel, opts...)
		}
		if err != nil {
			return err
		}
		printPlanAndStats(explain, &st)
		printTriples(triples, p.limit)

	case "two-selects":
		e, err := load("E", p.outer, 1)
		if err != nil {
			return err
		}
		pts, err := twoknn.TwoSelects(e, p.f1, p.kJoin, p.f2, p.kSel, opts...)
		if err != nil {
			return err
		}
		printPlanAndStats(explain, &st)
		printPoints(pts, p.limit)

	default:
		return fmt.Errorf("unknown query %q", p.query)
	}
	return nil
}

// runBatch is the -batch mode: a batched kNN-select over one relation,
// evaluated in-process through twoknn.KNNSelectBatch or POSTed to a running
// knnserve when -addr is set.
func runBatch(p params) error {
	focals, err := dataload.FileSpec(p.batch).Points()
	if err != nil {
		return err
	}
	fmt.Printf("batch: %d focal points, k=%d\n", len(focals), p.kJoin)
	if p.addr != "" {
		return runBatchServed(p, focals)
	}

	kind, err := twoknn.ParseIndexKind(p.index)
	if err != nil {
		return err
	}
	spec := dataload.FileSpec(p.outer)
	if p.outer == "" {
		spec = dataload.Spec{Kind: dataload.BerlinMOD, N: p.genN, Seed: 1}
	}
	src, err := server.BuildSource("E", spec, server.BuildOptions{Index: kind})
	if err != nil {
		return err
	}
	fmt.Printf("E: %d points (%s)\n", src.Len(), spec)

	var explain string
	var st twoknn.Stats
	results, err := twoknn.KNNSelectBatch(src, focals, p.kJoin,
		twoknn.WithExplain(&explain), twoknn.WithStats(&st))
	if err != nil {
		return err
	}
	printPlanAndStats(explain, &st)
	printed := 0
	for i, res := range results {
		if p.limit > 0 && printed >= p.limit {
			fmt.Printf("... (%d more focals)\n", len(results)-i)
			break
		}
		fmt.Printf("focal %d %v: %d neighbors %v\n", i, focals[i], len(res), res)
		printed++
	}
	return nil
}

// runBatchServed sends the focal batch to a knnserve instance.
func runBatchServed(p params, focals []twoknn.Point) error {
	if p.dataset == "" {
		return fmt.Errorf("-addr mode requires -dataset")
	}
	req := server.KNNSelectBatchRequest{Dataset: p.dataset, K: p.kJoin}
	req.Focals = make([]server.PointArg, len(focals))
	for i, f := range focals {
		req.Focals[i] = server.PointArg{X: f.X, Y: f.Y}
	}
	body, err := server.EncodeRequest(&req)
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+p.addr+"/v1/query/knn-select-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return err
	}
	fmt.Printf("%d result rows across %d focals (cache hits=%d misses=%d)\n",
		qr.Count, len(qr.Batches), qr.Stats.CacheHits, qr.Stats.CacheMisses)
	printed := 0
	for i, rows := range qr.Batches {
		if p.limit > 0 && printed >= p.limit {
			fmt.Printf("... (%d more focals)\n", len(qr.Batches)-i)
			break
		}
		fmt.Printf("focal %d: %d neighbors", i, len(rows))
		for _, row := range rows {
			fmt.Printf("  #%d(%g, %g)", row.ID, row.X, row.Y)
		}
		fmt.Println()
		printed++
	}
	return nil
}

func printPlanAndStats(explain string, st *twoknn.Stats) {
	fmt.Println("\nEXPLAIN")
	fmt.Print(explain)
	fmt.Printf("counters: %s\n\n", st)
}

func printPairs(pairs []twoknn.Pair, limit int) {
	twoknn.SortPairs(pairs)
	fmt.Printf("%d result pairs\n", len(pairs))
	for i, pr := range pairs {
		if limit > 0 && i >= limit {
			fmt.Printf("... (%d more)\n", len(pairs)-limit)
			return
		}
		fmt.Printf("  %v  %v\n", pr.Left, pr.Right)
	}
}

func printTriples(triples []twoknn.Triple, limit int) {
	twoknn.SortTriples(triples)
	fmt.Printf("%d result triples\n", len(triples))
	for i, tr := range triples {
		if limit > 0 && i >= limit {
			fmt.Printf("... (%d more)\n", len(triples)-limit)
			return
		}
		fmt.Printf("  %v  %v  %v\n", tr.A, tr.B, tr.C)
	}
}

func printPoints(pts []twoknn.Point, limit int) {
	twoknn.SortPoints(pts)
	fmt.Printf("%d result points\n", len(pts))
	for i, p := range pts {
		if limit > 0 && i >= limit {
			fmt.Printf("... (%d more)\n", len(pts)-limit)
			return
		}
		fmt.Printf("  %v\n", p)
	}
}
