package twoknn

import (
	"context"

	"repro/internal/remote"
)

// DialRemoteTransports exposes dialRemoteTransports to the external test
// package, which drives the differential oracle over loopback transports
// (no sockets) as one of the three execution layouts.
func DialRemoteTransports(ctx context.Context, name string, tps [][]remote.ShardTransport, cfg *RemoteConfig) (*RemoteRelation, error) {
	return dialRemoteTransports(ctx, name, tps, cfg)
}

// NonEmptyBlocks counts the relation's non-empty index blocks: the outer
// units a scatter/gather join hands its probe.
func NonEmptyBlocks(r *Relation) int {
	n := 0
	for _, b := range r.snapshot().rel.Ix.Blocks() {
		if b.Count() > 0 {
			n++
		}
	}
	return n
}
