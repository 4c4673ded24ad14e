// Package cluster is the sharded multi-node execution layer: it lets
// several fftd processes serve as one system. The paper's whole
// argument is that a butterfly workload's cost is governed by how it is
// partitioned across communicating nodes; this package makes that axis
// real in the serving stack instead of only in internal/netsim.
//
// The pieces:
//
//   - a consistent-hash Ring keyed on plan shape (transform kind, size
//     and options), so every transform of one shape lands on the same
//     node and that node's plan cache stays hot for it;
//   - a Registry of peers with heartbeat health checking against each
//     node's drain-aware readiness, removing failed peers from the ring
//     and re-adding them when they recover;
//   - a Client that forwards transforms over the binary wire protocol
//     (internal/cluster/wire) with hedged retries, exponential backoff
//     between retry rounds, and a per-peer circuit breaker; and
//   - a Node, the server side: a TCP listener executing forwarded
//     transforms against the local plan cache and answering readiness
//     and status probes, threading wire request IDs into internal/obs
//     spans.
//
// The failure model and policies are documented in docs/CLUSTER.md.
package cluster

import (
	"context"
	"fmt"

	"repro/internal/cluster/wire"
	"repro/internal/pencil"
	"repro/internal/plancache"
)

// Executor runs one transform locally. internal/server provides one
// backed by its plan cache; both the Node (for forwarded transforms)
// and the Client (for shards the local node owns) call it.
type Executor func(ctx context.Context, op *wire.TransformOp) ([]complex128, error)

// ShapeKey identifies a plan shape: everything that determines which
// cached plan a transform needs. The ring shards on it, so plan-cache
// locality is preserved per node — all size-4096 inverse transforms
// hash to one owner whose cache holds that plan.
type ShapeKey struct {
	Real      bool
	Inverse   bool
	NoReorder bool
	N         int
}

// KeyFor derives the shape key of one transform op.
func KeyFor(op *wire.TransformOp) ShapeKey {
	return ShapeKey{
		Real:      op.Real,
		Inverse:   op.Inverse,
		NoReorder: op.NoReorder,
		N:         op.N(),
	}
}

// Hash mixes the shape into the 64-bit ring keyspace (FNV-1a over the
// option bits and size). It allocates nothing: the client computes it
// per forwarded transform.
func (k ShapeKey) Hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	var opts byte
	if k.Real {
		opts |= 1
	}
	if k.Inverse {
		opts |= 2
	}
	if k.NoReorder {
		opts |= 4
	}
	mix(opts)
	n := uint64(k.N)
	for i := 0; i < 8; i++ {
		mix(byte(n >> (8 * i)))
	}
	return h
}

// String renders the shape for status output and span details.
func (k ShapeKey) String() string {
	kind := "complex"
	if k.Real {
		kind = "real"
	}
	s := fmt.Sprintf("%s/n%d", kind, k.N)
	if k.Inverse {
		s += "/inverse"
	}
	if k.NoReorder {
		s += "/noreorder"
	}
	return s
}

// NodeStatus is the JSON payload of a wire status RPC: one node's view
// of itself, rendered by `fftcluster status`.
type NodeStatus struct {
	ID            string  `json:"id"`
	Addr          string  `json:"addr"`
	Ready         bool    `json:"ready"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	TransformRPCs int64   `json:"transform_rpcs"`
	RPCErrors     int64   `json:"rpc_errors"`
	Pings         int64   `json:"pings"`
	// WireBytesRead and WireBytesWritten count whole frames (headers,
	// extensions and payloads) through this node's cluster port — the
	// server-side half of the communication-roofline accounting.
	WireBytesRead    int64            `json:"wire_bytes_read"`
	WireBytesWritten int64            `json:"wire_bytes_written"`
	PlanCache        *plancache.Stats `json:"plan_cache,omitempty"`
	// PencilRPCs counts pencil sub-operations served; Pencil snapshots
	// the node's pencil worker (band memory, open jobs) when one runs.
	PencilRPCs int64               `json:"pencil_rpcs,omitempty"`
	Pencil     *pencil.WorkerStats `json:"pencil,omitempty"`
}

// RemoteError is an application-level failure reported by the peer that
// executed a forwarded transform (e.g. an invalid transform length).
// It is terminal: the same request would fail identically on every
// peer, so the client neither hedges nor retries it.
type RemoteError struct {
	Peer string
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: peer %s: %s", e.Peer, e.Msg)
}
