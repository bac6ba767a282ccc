// Command knnserve serves the twoknn query engine over HTTP/JSON: one named
// dataset per -dataset flag (single, sharded or remote relation), every
// query entry point as a POST route — including the batched, result-cached
// /v1/query/knn-select-batch — plus /metrics and /healthz. See the README's
// "Serving" section for curl-able request examples.
//
// Usage:
//
//	knnserve -dataset trips=berlinmod:n=20000,seed=1
//	knnserve -listen :8080 \
//	    -dataset sites=file:sites.csv \
//	    -dataset trips=berlinmod:n=100000,seed=7 \
//	    -shards 4 -shard-policy spatial -index grid \
//	    -max-searchers 64 -max-inflight 256 -timeout 5s
//
// A remote dataset makes knnserve the coordinator of a knnshard fleet:
//
//	knnserve -dataset trips='remote:shards=http://h1:9101|http://h2:9101;http://h3:9101;http://h4:9101' \
//	    -probe-timeout 2s -probe-retries 2 -hedge-after 20ms
//
// where ';' separates shards and '|' separates a shard's replica endpoints.
// Probes travel under the robustness envelope (retries, hedging, breakers,
// replica failover); an exhausted replica set fails the query closed with
// 503 + Retry-After.
//
// Admission control: -max-inflight sheds excess per-dataset concurrency with
// an immediate 429 + Retry-After (a dataset spec's max_inflight=N segment
// overrides the bound for that one dataset; negative N disables its gate);
// -max-searchers bounds each dataset's (or
// each shard's) searcher pool, whose deadline-bounded waits shed as 429 via
// the engine's ErrSearchersExhausted. -timeout is the per-request evaluation
// budget (a request's timeout_ms can only shorten it; a spec's timeout_ms=N /
// max_timeout_ms=N segments set per-dataset budgets, retry_after_ms=N its
// Retry-After hint); expiry returns 504. SIGINT/SIGTERM drain in-flight
// requests and exit cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	twoknn "repro"
	"repro/internal/dataload"
	"repro/internal/server"
)

// options carries the parsed flags; run is separated from main so tests can
// drive the full serve lifecycle with a cancelable context.
type options struct {
	listen       string
	datasets     []string
	index        string
	blockCap     int
	shards       int
	policy       string
	maxSearchers int
	timeout      time.Duration
	maxInflight  int
	retryAfter   time.Duration
	probeTimeout time.Duration
	probeRetries int
	hedgeAfter   time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:8080", "address to listen on")
	flag.Func("dataset", "dataset as name=spec; repeatable (specs: file:points.csv, berlinmod:n=20000,seed=1, uniform:n=...,seed=..., clustered:clusters=...,per=...; append max_inflight=N to override -max-inflight for one dataset, N<0 disables its gate)", func(s string) error {
		o.datasets = append(o.datasets, s)
		return nil
	})
	flag.StringVar(&o.index, "index", "grid", "index kind for every dataset: grid or quadtree")
	flag.IntVar(&o.blockCap, "block-capacity", 0, "points per index block (0 = engine default)")
	flag.IntVar(&o.shards, "shards", 0, "shard count per dataset (0 or 1 = single relation)")
	flag.StringVar(&o.policy, "shard-policy", "hash", "partitioning policy for sharded datasets: hash or spatial")
	flag.IntVar(&o.maxSearchers, "max-searchers", 0, "bound each dataset's searcher pool (per shard when sharded; 0 = unbounded)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request evaluation budget")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "max concurrent requests per dataset before shedding 429 (0 = no server-level gate)")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on 429 responses")
	flag.DurationVar(&o.probeTimeout, "probe-timeout", 0, "per-probe deadline against remote shard endpoints (0 = envelope default)")
	flag.IntVar(&o.probeRetries, "probe-retries", 0, "retry budget per remote probe (0 = envelope default, negative disables retries)")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 0, "base latency after which a remote probe hedges to another replica (0 = envelope default, negative disables hedging)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knnserve:", err)
		os.Exit(1)
	}
}

// newServer builds the Server with every -dataset registered; ctx bounds
// the dial handshake of remote datasets.
func newServer(ctx context.Context, o options) (*server.Server, error) {
	if len(o.datasets) == 0 {
		return nil, fmt.Errorf("at least one -dataset name=spec is required")
	}
	kind, err := twoknn.ParseIndexKind(o.index)
	if err != nil {
		return nil, err
	}
	policy, err := server.ParseShardPolicy(o.policy)
	if err != nil {
		return nil, err
	}
	build := server.BuildOptions{
		Index:         kind,
		BlockCapacity: o.blockCap,
		Shards:        o.shards,
		Policy:        policy,
		MaxSearchers:  o.maxSearchers,
	}
	srv := server.New(server.Config{
		DefaultTimeout: o.timeout,
		MaxInflight:    o.maxInflight,
		RetryAfter:     o.retryAfter,
	})
	rcfg := &twoknn.RemoteConfig{
		ProbeTimeout: o.probeTimeout,
		MaxRetries:   o.probeRetries,
		HedgeAfter:   o.hedgeAfter,
	}
	for _, arg := range o.datasets {
		var src twoknn.Source
		name, shards, dopts, isRemote, err := server.SplitDatasetArgRemote(arg)
		if err != nil {
			return nil, err
		}
		if isRemote {
			src, err = twoknn.DialRemote(ctx, name, shards, rcfg)
			if err != nil {
				return nil, fmt.Errorf("dialing dataset %q: %w", name, err)
			}
		} else {
			var spec dataload.Spec
			name, spec, dopts, err = server.SplitDatasetArgOptions(arg)
			if err != nil {
				return nil, err
			}
			src, err = server.BuildSource(name, spec, build)
			if err != nil {
				return nil, err
			}
		}
		if err := srv.RegisterWithOptions(name, src, dopts); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

func run(ctx context.Context, o options, stdout io.Writer) error {
	srv, err := newServer(ctx, o)
	if err != nil {
		return err
	}
	for _, name := range srv.DatasetNames() {
		fmt.Fprintf(stdout, "knnserve: dataset %q ready\n", name)
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "knnserve: listening on http://%s (%s)\n",
		ln.Addr(), strings.Join(srv.DatasetNames(), ", "))

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Drain in-flight requests; each is already bounded by the request
		// budget, so the grace period only needs to cover that.
		fmt.Fprintln(stdout, "knnserve: shutting down")
		grace := o.timeout + 5*time.Second
		shCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		return hs.Shutdown(shCtx)
	case err := <-errc:
		return err
	}
}
