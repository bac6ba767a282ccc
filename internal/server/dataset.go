package server

import (
	"fmt"
	"strconv"
	"strings"

	twoknn "repro"
	"repro/internal/dataload"
)

// This file is the dataset-loading surface cmd/knnserve and cmd/knnquery
// share: parse a spec, build the engine source, one code path everywhere.
// (cmd/knnbench takes no dataset argument; internal/bench generates its
// workloads from the same dataload specs directly.)

// BuildOptions shape the engine backing a loaded dataset gets.
type BuildOptions struct {
	// Index selects the spatial index (default twoknn.GridIndex).
	Index twoknn.IndexKind

	// BlockCapacity is the per-block point target; 0 keeps the engine
	// default (64).
	BlockCapacity int

	// Shards > 1 builds a ShardedRelation with that many shards; 0 or 1
	// builds a single Relation.
	Shards int

	// Policy selects the partition for sharded datasets (default
	// HashSharding).
	Policy twoknn.ShardPolicy

	// MaxSearchers bounds the searcher pool (per shard for sharded
	// datasets); 0 leaves it unbounded. Bounded pools are the engine layer
	// of the server's admission control: beyond the bound, deadline-carrying
	// queries shed as ErrSearchersExhausted → 429.
	MaxSearchers int
}

// BuildSource materializes a dataset spec into a query source.
func BuildSource(name string, sp dataload.Spec, o BuildOptions) (twoknn.Source, error) {
	pts, err := sp.Points()
	if err != nil {
		return nil, fmt.Errorf("loading dataset %q (%s): %w", name, sp, err)
	}
	opts := []twoknn.RelationOption{twoknn.WithIndexKind(o.Index)}
	if o.BlockCapacity > 0 {
		opts = append(opts, twoknn.WithBlockCapacity(o.BlockCapacity))
	}
	if o.MaxSearchers > 0 {
		opts = append(opts, twoknn.WithMaxSearchers(o.MaxSearchers))
	}
	if o.Shards > 1 {
		opts = append(opts, twoknn.WithShardPolicy(o.Policy))
		return twoknn.NewShardedRelation(name, pts, o.Shards, opts...)
	}
	return twoknn.NewRelation(name, pts, opts...)
}

// SplitDatasetArgOptions splits a -dataset flag value "name=spec" (e.g.
// "trips=berlinmod:n=20000,seed=1" or "sites=points.csv") and extracts the
// serving-side options the spec grammar carries beyond dataload's
// vocabulary, recognized as segments anywhere in the comma-separated option
// list:
//
//	max_inflight=N     per-dataset admission bound (N < 0 disables the gate)
//	timeout_ms=N       default evaluation budget for requests without one
//	max_timeout_ms=N   hard cap on any request's budget against this dataset
//	retry_after_ms=N   Retry-After hint on this dataset's 429/503 responses
//
// e.g. "trips=berlinmod:n=20000,seed=1,max_inflight=8,max_timeout_ms=500".
func SplitDatasetArgOptions(s string) (name string, spec dataload.Spec, opts DatasetOptions, err error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return "", dataload.Spec{}, DatasetOptions{}, fmt.Errorf("dataset %q is not name=spec", s)
	}
	rest, opts, err = extractDatasetOptions(rest)
	if err != nil {
		return "", dataload.Spec{}, DatasetOptions{}, fmt.Errorf("dataset %q: %w", name, err)
	}
	spec, err = dataload.Parse(rest)
	if err != nil {
		return "", dataload.Spec{}, DatasetOptions{}, fmt.Errorf("dataset %q: %w", name, err)
	}
	return name, spec, opts, nil
}

// extractDatasetOptions strips the serving-side option segments out of a
// spec string before dataload parses the remainder. The "kind:" head (when
// present) is kept aside so an option segment directly after the colon is
// recognized too.
func extractDatasetOptions(spec string) (string, DatasetOptions, error) {
	var opts DatasetOptions
	head, rest := "", spec
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		head, rest = spec[:i+1], spec[i+1:]
	}
	ms := func(key, v string) (int64, error) {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("%s %q is not a positive integer", key, v)
		}
		return n, nil
	}
	segs := strings.Split(rest, ",")
	kept := segs[:0]
	for _, seg := range segs {
		var err error
		switch {
		case strings.HasPrefix(seg, "max_inflight="):
			v := seg[len("max_inflight="):]
			n, aerr := strconv.Atoi(v)
			if aerr != nil || n == 0 {
				return "", DatasetOptions{}, fmt.Errorf("max_inflight %q is not a non-zero integer", v)
			}
			opts.MaxInflight = n
		case strings.HasPrefix(seg, "timeout_ms="):
			opts.DefaultTimeoutMS, err = ms("timeout_ms", seg[len("timeout_ms="):])
		case strings.HasPrefix(seg, "max_timeout_ms="):
			opts.MaxTimeoutMS, err = ms("max_timeout_ms", seg[len("max_timeout_ms="):])
		case strings.HasPrefix(seg, "retry_after_ms="):
			opts.RetryAfterMS, err = ms("retry_after_ms", seg[len("retry_after_ms="):])
		default:
			kept = append(kept, seg)
		}
		if err != nil {
			return "", DatasetOptions{}, err
		}
	}
	if opts.DefaultTimeoutMS > 0 && opts.MaxTimeoutMS > 0 && opts.DefaultTimeoutMS > opts.MaxTimeoutMS {
		return "", DatasetOptions{}, fmt.Errorf("timeout_ms %d exceeds max_timeout_ms %d",
			opts.DefaultTimeoutMS, opts.MaxTimeoutMS)
	}
	return head + strings.Join(kept, ","), opts, nil
}

// SplitDatasetArgRemote recognizes the remote dataset form of a -dataset
// flag value,
//
//	name=remote:shards=URL[|URL...][;URL[|URL...]...][,option...]
//
// where ';' separates shards and '|' separates a shard's replica endpoints
// (preferred first). The serving-side option segments of
// SplitDatasetArgOptions apply unchanged after the shard list. ok reports
// whether s is a remote spec at all; a non-remote spec returns ok=false
// with no error so callers fall through to the dataload grammar.
func SplitDatasetArgRemote(s string) (name string, shards [][]string, opts DatasetOptions, ok bool, err error) {
	name, rest, found := strings.Cut(s, "=")
	if !found || name == "" || !strings.HasPrefix(rest, "remote:") {
		return "", nil, DatasetOptions{}, false, nil
	}
	rest, opts, err = extractDatasetOptions(rest)
	if err != nil {
		return "", nil, DatasetOptions{}, true, fmt.Errorf("dataset %q: %w", name, err)
	}
	body := strings.TrimPrefix(rest, "remote:")
	list, found := strings.CutPrefix(body, "shards=")
	if !found {
		return "", nil, DatasetOptions{}, true, fmt.Errorf("dataset %q: remote spec %q wants remote:shards=URL;URL;...", name, body)
	}
	for i, shardSeg := range strings.Split(list, ";") {
		var replicas []string
		for _, u := range strings.Split(shardSeg, "|") {
			if u == "" {
				continue
			}
			replicas = append(replicas, u)
		}
		if len(replicas) == 0 {
			return "", nil, DatasetOptions{}, true, fmt.Errorf("dataset %q: shard %d has no endpoints", name, i)
		}
		shards = append(shards, replicas)
	}
	return name, shards, opts, true, nil
}

// ParseShardPolicy parses a shard-policy flag value.
func ParseShardPolicy(s string) (twoknn.ShardPolicy, error) {
	switch s {
	case "hash":
		return twoknn.HashSharding, nil
	case "spatial":
		return twoknn.SpatialSharding, nil
	default:
		return 0, fmt.Errorf("unknown shard policy %q (want hash or spatial)", s)
	}
}

// ParseAlgorithm parses an algorithm flag value (the CLI form of the wire
// codec's Common.Algorithm field): the String form of one of the four
// strategies.
func ParseAlgorithm(s string) (twoknn.Algorithm, error) {
	for _, a := range [...]twoknn.Algorithm{twoknn.AlgorithmAuto, twoknn.AlgorithmConceptual,
		twoknn.AlgorithmCounting, twoknn.AlgorithmBlockMarking} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want auto, conceptual, counting or block-marking)", s)
}
