package cluster

import (
	"context"
	"fmt"

	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/pencil"
)

// PencilExecutor serves pencil sub-operations on a node —
// pencil.Worker in fftd, a stub in tests. The interface lives here so
// the dependency stays one-way: internal/pencil knows nothing about the
// cluster's membership or transport layers.
type PencilExecutor interface {
	ServePencil(ctx context.Context, op, resp *wire.PencilOp) error
}

// PencilTransport carries pencil sub-operations over the cluster
// client's pooled connections; it implements pencil.Transport. Calls
// addressed to Self dispatch in-process through Local and report zero
// wire bytes; remote calls require the peer to have advertised wire v2
// in its pong — pencil frames are Version2-only, so a v1 peer would
// silently drop the connection instead of answering. That capability
// gate, learned from heartbeats, is the version negotiation.
//
// Unlike transform RPCs, pencil calls never hedge, fail over or retry:
// every op after Open is bound to band state on one specific peer, so
// re-sending elsewhere cannot succeed. A transport failure is reported
// to the registry (fast-failure path) and surfaced to the coordinator,
// which aborts the run cleanly. A call that failed because the caller
// canceled it is not the peer's fault and is not reported: the
// coordinator cancels a stage's sibling calls when one peer fails, and
// counting those would mark healthy peers failed.
type PencilTransport struct {
	Client *Client
	Self   string
	Local  PencilExecutor
}

var _ pencil.Transport = (*PencilTransport)(nil)

// Call implements pencil.Transport.
func (t *PencilTransport) Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (sent, recv int64, err error) {
	if peer == t.Self {
		if t.Local == nil {
			return 0, 0, fmt.Errorf("cluster: no local pencil executor for %s", peer)
		}
		return 0, 0, t.Local.ServePencil(ctx, req, resp)
	}
	c := t.Client
	if c.peerCap(peer) == 0 {
		// Capability unknown (first contact before any heartbeat): one
		// pooled ping doubles as the version handshake.
		if _, err := c.Ping(ctx, peer); err != nil {
			if ctx.Err() == nil {
				c.reg.ReportFailure(peer, err)
			}
			return 0, 0, fmt.Errorf("cluster: pencil handshake with %s: %w", peer, err)
		}
	}
	if c.peerCap(peer) < wire.Version2 {
		return 0, 0, fmt.Errorf("cluster: peer %s speaks wire v1; pencil shards require v2", peer)
	}
	p := c.pool(peer)
	pc, err := p.get(ctx)
	if err != nil {
		if ctx.Err() == nil {
			c.reg.ReportFailure(peer, err)
		}
		return 0, 0, fmt.Errorf("cluster: peer %s: %w", peer, err)
	}
	id := c.nextID()
	if tr := obs.FromContext(ctx); tr != nil && tr.TraceID() != 0 {
		tc := wire.TraceContext{TraceID: tr.TraceID(), Sampled: true}
		if sp := obs.SpanFromContext(ctx); sp != nil {
			tc.ParentSpan = uint32(sp.ID())
		}
		pc.wbuf = wire.AppendPencilReqTraced(pc.wbuf[:0], id, req, tc)
	} else {
		pc.wbuf = wire.AppendPencilReq(pc.wbuf[:0], id, req)
	}
	h, payload, err := pc.roundTrip(ctx, c.cfg.RPCTimeout, pc.wbuf)
	if err != nil {
		pc.close()
		if ctx.Err() == nil {
			c.breaker(peer).record(false)
			c.reg.ReportFailure(peer, err)
		}
		return 0, 0, fmt.Errorf("cluster: peer %s: %w", peer, err)
	}
	if h.Type != wire.TypePencilResp || h.ID != id {
		pc.close()
		return 0, 0, fmt.Errorf("wire: unexpected %s frame (id %x, want %x)", wire.TypeName(h.Type), h.ID, id)
	}
	sent = int64(len(pc.wbuf))
	recv = int64(wire.HeaderSize + len(payload))
	c.bytesSent.Add(sent)
	c.bytesRecv.Add(recv)
	remoteMsg, err := wire.ParsePencilResp(h, payload, resp)
	if err != nil {
		pc.close()
		return sent, recv, err
	}
	p.put(pc)
	c.breaker(peer).record(true)
	if remoteMsg != "" {
		c.remoteErrors.Add(1)
		return sent, recv, &RemoteError{Peer: peer, Msg: remoteMsg}
	}
	return sent, recv, nil
}
