// Command knnshard serves one shard of a dataset over the HTTP/JSON
// shard-probe protocol — the worker side of the distributed scatter/gather
// deployment whose coordinator is knnserve with a remote: dataset spec.
//
// Every shard process loads the FULL dataset spec and partitions it locally
// with the same deterministic policy as the coordinator's layout, so stable
// point IDs are global input positions and all processes derive identical
// partitions without any shard-assignment service. Replicas of the same
// shard simply run the same flags on different ports.
//
// Usage:
//
//	knnshard -listen :9101 -name trips -data berlinmod:n=100000,seed=7 \
//	    -shard 0 -shards 3 -shard-policy hash -index grid
//
// The process serves /shard/v1/{info,blocks,block,neighborhood,
// neighborhood-within,count-closer} plus /healthz and /metrics, and drains
// cleanly on SIGINT/SIGTERM.
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
	name         string
	data         string
	shard        int
	shards       int
	index        string
	blockCap     int
	policy       string
	maxSearchers int
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:9100", "address to listen on")
	flag.StringVar(&o.name, "name", "", "dataset name served to the coordinator (defaults to the spec string)")
	flag.StringVar(&o.data, "data", "", "full dataset spec (file:points.csv, berlinmod:n=...,seed=..., uniform:..., clustered:...); every shard process loads the whole spec and serves only its partition")
	flag.IntVar(&o.shard, "shard", 0, "which shard of the partition this process serves (0-based)")
	flag.IntVar(&o.shards, "shards", 1, "total shard count of the layout")
	flag.StringVar(&o.index, "index", "grid", "index kind: grid or quadtree")
	flag.IntVar(&o.blockCap, "block-capacity", 0, "points per index block (0 = engine default)")
	flag.StringVar(&o.policy, "shard-policy", "hash", "partitioning policy: hash or spatial (must match every other shard and the coordinator)")
	flag.IntVar(&o.maxSearchers, "max-searchers", 0, "bound this shard's searcher pool (0 = unbounded)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knnshard:", err)
		os.Exit(1)
	}
}

// newHandler loads the spec and builds the shard's probe handler.
func newHandler(o options) (http.Handler, error) {
	if o.data == "" {
		return nil, fmt.Errorf("-data spec is required")
	}
	name := o.name
	if name == "" {
		name = o.data
	}
	kind, err := twoknn.ParseIndexKind(o.index)
	if err != nil {
		return nil, err
	}
	policy, err := server.ParseShardPolicy(o.policy)
	if err != nil {
		return nil, err
	}
	sp, err := dataload.Parse(o.data)
	if err != nil {
		return nil, err
	}
	pts, err := sp.Points()
	if err != nil {
		return nil, fmt.Errorf("loading dataset (%s): %w", sp, err)
	}
	opts := []twoknn.RelationOption{
		twoknn.WithIndexKind(kind),
		twoknn.WithShardPolicy(policy),
	}
	if o.blockCap > 0 {
		opts = append(opts, twoknn.WithBlockCapacity(o.blockCap))
	}
	if o.maxSearchers > 0 {
		opts = append(opts, twoknn.WithMaxSearchers(o.maxSearchers))
	}
	return twoknn.NewShardHandler(name, pts, o.shard, o.shards, opts...)
}

func run(ctx context.Context, o options, stdout io.Writer) error {
	h, err := newHandler(o)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "knnshard: shard %d/%d listening on http://%s\n", o.shard, o.shards, ln.Addr())

	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Drain in-flight probes; each is bounded by its coordinator's
		// per-probe deadline, so a short grace period suffices.
		fmt.Fprintln(stdout, "knnshard: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(shCtx)
	case err := <-errc:
		return err
	}
}
