package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/obs"
)

// ErrNoPeers is returned when no routable peer remains for a shard
// (empty ring, or every candidate's circuit breaker is open).
var ErrNoPeers = errors.New("cluster: no routable peer for shard")

// ClientConfig tunes routing and failure handling; zero values mean the
// documented defaults.
type ClientConfig struct {
	// Self is the local node's ID; shards the ring assigns to Self run
	// through Local instead of the network.
	Self string
	// Local executes transforms owned by the local node. Required.
	Local Executor
	// Fanout is the preference-list length: the shard owner plus up to
	// Fanout-1 failover successors; 0 means 3.
	Fanout int
	// HedgeDelay is how long the client waits on one attempt before
	// launching a hedge at the next preference; 0 means 25ms. Negative
	// disables hedging (failover still happens on hard errors).
	HedgeDelay time.Duration
	// Retries is the number of additional full preference-list rounds
	// after the first, with exponential backoff between rounds; 0 means
	// 2.
	Retries int
	// BackoffBase is the sleep before the first retry round, doubling
	// each round; 0 means 10ms.
	BackoffBase time.Duration
	// DialTimeout bounds one TCP dial; 0 means 2s.
	DialTimeout time.Duration
	// RPCTimeout bounds one remote attempt (write + execute + read);
	// 0 means 10s.
	RPCTimeout time.Duration
	// BreakerThreshold opens a peer's circuit after this many
	// consecutive transport failures; 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit refuses the peer
	// before admitting a half-open probe; 0 means 2s.
	BreakerCooldown time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// ClientMetrics is a snapshot of the client's routing counters.
type ClientMetrics struct {
	Local        int64 `json:"local"`         // transforms executed on the local shard
	Forwarded    int64 `json:"forwarded"`     // transforms sent to a remote peer
	Hedged       int64 `json:"hedged"`        // extra attempts launched by the hedge timer
	Failovers    int64 `json:"failovers"`     // attempts launched after a hard failure
	Retries      int64 `json:"retries"`       // full preference-list retry rounds
	BreakerSkips int64 `json:"breaker_skips"` // peers skipped on an open circuit
	RemoteErrors int64 `json:"remote_errors"` // application errors returned by peers

	// Hedge outcomes: every hedged attempt resolves to exactly one of
	// won (its response was the round's winning success), lost (it
	// completed with an error while the round was still undecided) or
	// canceled (still in flight when the round resolved without it).
	HedgeWon      int64 `json:"hedge_won"`
	HedgeLost     int64 `json:"hedge_lost"`
	HedgeCanceled int64 `json:"hedge_canceled"`

	// WireBytesSent and WireBytesRecv count whole transform-RPC frames
	// this client moved (headers, extensions, samples and span blocks;
	// heartbeat pings are excluded — they are membership overhead, not
	// transform communication). CommFloorBytes is the matching
	// analytical floor: the sample bytes a remote execution cannot avoid
	// moving, summed once per remotely-served transform regardless of
	// how many hedges or retries it took. Achieved/floor is the
	// cluster's communication-roofline ratio, ≥ 1 by construction.
	WireBytesSent  int64 `json:"wire_bytes_sent"`
	WireBytesRecv  int64 `json:"wire_bytes_recv"`
	CommFloorBytes int64 `json:"comm_floor_bytes"`
}

// Sub returns the counter-wise difference m - prev: the routing
// activity between two snapshots. Load sweeps record one delta per
// offered-load step, so each step's artifact row shows how much work
// the ring forwarded, hedged and retried at that intensity.
func (m ClientMetrics) Sub(prev ClientMetrics) ClientMetrics {
	return ClientMetrics{
		Local:        m.Local - prev.Local,
		Forwarded:    m.Forwarded - prev.Forwarded,
		Hedged:       m.Hedged - prev.Hedged,
		Failovers:    m.Failovers - prev.Failovers,
		Retries:      m.Retries - prev.Retries,
		BreakerSkips: m.BreakerSkips - prev.BreakerSkips,
		RemoteErrors: m.RemoteErrors - prev.RemoteErrors,

		HedgeWon:      m.HedgeWon - prev.HedgeWon,
		HedgeLost:     m.HedgeLost - prev.HedgeLost,
		HedgeCanceled: m.HedgeCanceled - prev.HedgeCanceled,

		WireBytesSent:  m.WireBytesSent - prev.WireBytesSent,
		WireBytesRecv:  m.WireBytesRecv - prev.WireBytesRecv,
		CommFloorBytes: m.CommFloorBytes - prev.CommFloorBytes,
	}
}

// Client routes transforms across the cluster: ring lookup on the plan
// shape, local execution for self-owned shards, and for remote shards a
// hedged, breaker-guarded, retried RPC over pooled connections.
type Client struct {
	cfg ClientConfig
	reg *Registry

	mu       sync.Mutex
	pools    map[string]*connPool
	breakers map[string]*breaker
	// peerVer caches each peer's advertised wire capability, learned
	// from pong flags: 0 unknown, wire.Version for old binaries,
	// wire.Version2 for peers that accept trace contexts.
	peerVer map[string]uint8

	idHigh uint64
	seq    atomic.Uint64

	local        atomic.Int64
	forwarded    atomic.Int64
	hedged       atomic.Int64
	failovers    atomic.Int64
	retries      atomic.Int64
	breakerSkips atomic.Int64
	remoteErrors atomic.Int64

	hedgeWon      atomic.Int64
	hedgeLost     atomic.Int64
	hedgeCanceled atomic.Int64

	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	commFloor atomic.Int64
}

// NewClient builds a client over a registry. The registry's recovery
// hook is wired to reset the recovered peer's circuit breaker.
func NewClient(reg *Registry, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Local == nil {
		return nil, errors.New("cluster: ClientConfig.Local is required")
	}
	if cfg.Self == "" {
		cfg.Self = reg.Self()
	}
	c := &Client{
		cfg:      cfg,
		reg:      reg,
		pools:    make(map[string]*connPool),
		breakers: make(map[string]*breaker),
		peerVer:  make(map[string]uint8),
		// Random high bits keep request IDs from successive processes
		// distinct in merged traces.
		idHigh: uint64(rand.Uint32()) << 32,
	}
	reg.SetOnRecover(func(id string) { c.breaker(id).reset() })
	return c, nil
}

// Registry returns the client's membership view (for status CLIs).
func (c *Client) Registry() *Registry { return c.reg }

// Metrics snapshots the routing counters.
func (c *Client) Metrics() ClientMetrics {
	return ClientMetrics{
		Local:        c.local.Load(),
		Forwarded:    c.forwarded.Load(),
		Hedged:       c.hedged.Load(),
		Failovers:    c.failovers.Load(),
		Retries:      c.retries.Load(),
		BreakerSkips: c.breakerSkips.Load(),
		RemoteErrors: c.remoteErrors.Load(),

		HedgeWon:      c.hedgeWon.Load(),
		HedgeLost:     c.hedgeLost.Load(),
		HedgeCanceled: c.hedgeCanceled.Load(),

		WireBytesSent:  c.bytesSent.Load(),
		WireBytesRecv:  c.bytesRecv.Load(),
		CommFloorBytes: c.commFloor.Load(),
	}
}

// BreakerStates reports each known peer's circuit state.
func (c *Client) BreakerStates() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.breakers))
	for id, b := range c.breakers {
		out[id] = b.state()
	}
	return out
}

// nextID mints a wire request ID.
func (c *Client) nextID() uint64 {
	return c.idHigh | (c.seq.Add(1) & 0xffffffff)
}

func (c *Client) breaker(id string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[id]
	if !ok {
		b = newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown, nil)
		c.breakers[id] = b
	}
	return b
}

func (c *Client) pool(addr string) *connPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[addr]
	if !ok {
		p = &connPool{addr: addr, dialTimeout: c.cfg.DialTimeout}
		c.pools[addr] = p
	}
	return p
}

// Close tears down every pooled connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pools {
		p.closeAll()
	}
}

// Transform routes one transform: ring lookup on its shape, then local
// execution or a hedged remote RPC with failover and retries. The
// returned slice is owned by the caller.
func (c *Client) Transform(ctx context.Context, op *wire.TransformOp) ([]complex128, error) {
	key := KeyFor(op)
	prefs := c.reg.Ring().LookupN(key.Hash(), c.cfg.Fanout)
	if len(prefs) == 0 || (len(prefs) == 1 && prefs[0] == c.cfg.Self) {
		c.local.Add(1)
		return c.cfg.Local(ctx, op)
	}

	if tr := obs.FromContext(ctx); tr != nil {
		// Mint the cross-node trace ID lazily: the first routed transform
		// of a traced request stamps the tracer, and every remote span of
		// the request carries the same ID.
		if tr.TraceID() == 0 {
			tr.SetTraceID(obs.NewTraceID())
		}
		sp := obs.StartChild(ctx, "cluster.route").SetCat(obs.CatCluster).
			SetDetail(fmt.Sprintf("shape=%s owner=%s", key, prefs[0]))
		defer sp.End()
		// Rebind so attempt spans nest under the route span rather than
		// beside it.
		ctx = obs.WithSpan(ctx, sp)
	}

	backoff := c.cfg.BackoffBase
	var lastErr error
	for round := 0; ; round++ {
		out, peer, err := c.tryRound(ctx, prefs, op, round)
		if err == nil {
			if peer != c.cfg.Self {
				// One remote execution's unavoidable communication: the
				// request and response sample payloads, counted once per
				// transform however many attempts it took. This is the
				// serving-path roofline floor.
				c.commFloor.Add(int64(sampleBytes(op) + 16*len(out)))
			}
			return out, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			// Application-level failure: deterministic, not worth
			// retrying elsewhere.
			return nil, err
		}
		lastErr = err
		if round >= c.cfg.Retries || ctx.Err() != nil {
			break
		}
		c.retries.Add(1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: %w (last attempt: %v)", ctx.Err(), lastErr)
		}
		backoff *= 2
	}
	return nil, fmt.Errorf("cluster: all peers failed for shard %s: %w", key, lastErr)
}

// sampleBytes is the encoded size of an op's sample payload.
func sampleBytes(op *wire.TransformOp) int {
	if op.Real && !op.Inverse {
		return 8 * len(op.RealInput)
	}
	return 16 * len(op.Input)
}

// attemptResult is one attempt's outcome.
type attemptResult struct {
	peer  string
	out   []complex128
	err   error
	hedge bool      // launched by the hedge timer
	sp    *obs.Span // the attempt's span (nil when untraced)
}

// tryRound runs one pass over the preference list: launch the primary,
// hedge to the next candidate when the hedge timer fires before a
// response, and fail over immediately on hard errors. The first
// success wins (its serving peer is returned); a RemoteError is
// terminal for the round. Hedged attempts are resolved to
// won/lost/canceled as the round settles.
func (c *Client) tryRound(ctx context.Context, prefs []string, op *wire.TransformOp, round int) (_ []complex128, peer string, _ error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	resc := make(chan attemptResult, len(prefs))
	next := 0
	inflight := 0
	hedgesInflight := 0
	// Hedges still in flight when the round resolves were launched for
	// nothing: their cancellation is an outcome worth counting.
	defer func() { c.hedgeCanceled.Add(int64(hedgesInflight)) }()
	launch := func(kind string) bool {
		for next < len(prefs) {
			id := prefs[next]
			next++
			if id != c.cfg.Self && !c.breaker(id).allow() {
				c.breakerSkips.Add(1)
				continue
			}
			inflight++
			hedge := kind == "hedge"
			go func(id, kind string) {
				r := c.attempt(ctx, id, op, kind, round)
				r.hedge = hedge
				resc <- r
			}(id, kind)
			return true
		}
		return false
	}
	if !launch("primary") {
		return nil, "", ErrNoPeers
	}

	var hedgec <-chan time.Time
	if c.cfg.HedgeDelay > 0 {
		t := time.NewTicker(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgec = t.C
	}

	var firstErr error
	for {
		select {
		case r := <-resc:
			inflight--
			if r.hedge {
				hedgesInflight--
			}
			if r.err == nil {
				if r.hedge {
					c.hedgeWon.Add(1)
				}
				r.sp.SetDetail(r.sp.Detail() + " outcome=won")
				return r.out, r.peer, nil
			}
			if r.hedge {
				c.hedgeLost.Add(1)
			}
			var remote *RemoteError
			if errors.As(r.err, &remote) {
				return nil, "", r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if launch("failover") {
				c.failovers.Add(1)
			} else if inflight == 0 {
				return nil, "", firstErr
			}
		case <-hedgec:
			if launch("hedge") {
				c.hedged.Add(1)
				hedgesInflight++
			}
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
}

// attempt executes op on one candidate: the local executor for Self,
// a wire RPC otherwise. Transport outcomes feed the peer's breaker and
// the registry's fast failure path, except for an attempt whose context
// was canceled — a hedge loser, or a caller that gave up — which says
// nothing about the peer. When the request is traced, the
// attempt gets its own span tagged with peer, kind (primary, hedge,
// failover), round and outcome — hedge losers and failed failovers
// stay visible in the assembled tree instead of vanishing into the
// winner's latency.
func (c *Client) attempt(ctx context.Context, id string, op *wire.TransformOp, kind string, round int) attemptResult {
	sp := obs.StartChild(ctx, "cluster.attempt")
	if sp != nil {
		sp.SetCat(obs.CatCluster).
			SetDetail(fmt.Sprintf("peer=%s kind=%s round=%d", id, kind, round))
		defer sp.End()
	}
	outcome := func(o string) { sp.SetDetail(sp.Detail() + " outcome=" + o) }

	if id == c.cfg.Self {
		c.local.Add(1)
		if sp != nil {
			ctx = obs.WithSpan(ctx, sp)
		}
		out, err := c.cfg.Local(ctx, op)
		if err != nil {
			outcome("failed")
		}
		// Successful attempts are left untagged here: the round tags the
		// winning one "won" when it consumes the result, and a success
		// that lost the race keeps no outcome (it was discarded).
		return attemptResult{peer: id, out: out, err: err, sp: sp}
	}
	c.forwarded.Add(1)
	out, remoteMsg, err := c.rpcTransform(ctx, id, op, sp)
	b := c.breaker(id)
	switch {
	case err != nil:
		if ctx.Err() != nil {
			b.release()
			outcome("canceled")
		} else {
			b.record(false)
			c.reg.ReportFailure(id, err)
			outcome("failed")
		}
		return attemptResult{peer: id, err: fmt.Errorf("cluster: peer %s: %w", id, err), sp: sp}
	case remoteMsg != "":
		// The peer is healthy — it executed and reported an application
		// error — so the breaker records success.
		b.record(true)
		c.remoteErrors.Add(1)
		outcome("remote-error")
		return attemptResult{peer: id, err: &RemoteError{Peer: id, Msg: remoteMsg}, sp: sp}
	default:
		b.record(true)
		return attemptResult{peer: id, out: out, sp: sp}
	}
}

// peerCap returns addr's cached wire capability (0 when no pong has
// been seen yet).
func (c *Client) peerCap(addr string) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerVer[addr]
}

// PencilCapable reports whether peer can carry pencil shards: pencil
// frames are wire-v2-only, and capability is advertised in pong flags.
// When no pong has been cached yet (fresh cluster before the first
// heartbeat) one pooled ping resolves it; an unreachable peer reports
// false and is left for the registry to mark down. Schedulers use this
// to exclude v1-only stragglers from a pencil run instead of letting
// one old binary fail every run.
func (c *Client) PencilCapable(ctx context.Context, peer string) bool {
	if c.peerCap(peer) == 0 {
		if _, err := c.Ping(ctx, peer); err != nil {
			return false
		}
	}
	return c.peerCap(peer) >= wire.Version2
}

// rpcTransform performs one transform RPC over a pooled connection.
// When sp is non-nil (a traced request) and the peer speaks wire v2,
// the request carries the trace context and the response's span block
// is grafted under sp; the whole frame sizes in both directions are
// recorded on sp and on the client-wide byte counters at the same
// points, so span totals and counters reconcile exactly.
func (c *Client) rpcTransform(ctx context.Context, addr string, op *wire.TransformOp, sp *obs.Span) ([]complex128, string, error) {
	tr := obs.FromContext(ctx)
	traced := sp != nil && tr != nil
	if traced && c.peerCap(addr) == 0 {
		// Capability unknown (first contact before any heartbeat): one
		// pooled ping doubles as the version handshake.
		if _, err := c.Ping(ctx, addr); err != nil {
			return nil, "", err
		}
	}
	p := c.pool(addr)
	pc, err := p.get(ctx)
	if err != nil {
		return nil, "", err
	}
	id := c.nextID()
	if traced && c.peerCap(addr) >= wire.Version2 {
		tc := wire.TraceContext{
			TraceID:    tr.TraceID(),
			ParentSpan: uint32(sp.ID()),
			Sampled:    true,
		}
		pc.wbuf = wire.AppendTransformReqV2(pc.wbuf[:0], id, op, tc)
	} else {
		pc.wbuf = wire.AppendTransformReq(pc.wbuf[:0], id, op)
	}
	h, payload, err := pc.roundTrip(ctx, c.cfg.RPCTimeout, pc.wbuf)
	if err != nil {
		pc.close()
		return nil, "", err
	}
	if h.Type != wire.TypeTransformResp || h.ID != id {
		pc.close()
		return nil, "", fmt.Errorf("wire: unexpected %s frame (id %x, want %x)", wire.TypeName(h.Type), h.ID, id)
	}
	sent, recv := int64(len(pc.wbuf)), int64(wire.HeaderSize+len(payload))
	c.bytesSent.Add(sent)
	c.bytesRecv.Add(recv)
	sp.AddBytes(sent, recv)
	out, spanBlock, remoteMsg, err := wire.ParseTransformRespV2(h, payload, nil)
	if err != nil {
		pc.close()
		return nil, "", err
	}
	if len(spanBlock) > 0 && traced {
		// A corrupt span block loses observability, not the result.
		if rspans, perr := obs.ParseSpans(spanBlock); perr == nil {
			tr.Graft(sp, rspans)
		}
	}
	p.put(pc)
	return out, remoteMsg, nil
}

// Ping probes addr's readiness over a pooled connection; the registry's
// heartbeat loop uses it as its ProbeFunc.
func (c *Client) Ping(ctx context.Context, addr string) (bool, error) {
	p := c.pool(addr)
	pc, err := p.get(ctx)
	if err != nil {
		return false, err
	}
	id := c.nextID()
	pc.wbuf = wire.AppendPing(pc.wbuf[:0], id)
	h, _, err := pc.roundTrip(ctx, c.cfg.RPCTimeout, pc.wbuf)
	if err != nil {
		pc.close()
		return false, err
	}
	if h.Type != wire.TypePong || h.ID != id {
		pc.close()
		return false, fmt.Errorf("wire: unexpected %s frame", wire.TypeName(h.Type))
	}
	p.put(pc)
	// Pongs double as the version handshake: FlagV2 advertises that the
	// peer accepts trace-context frames.
	ver := uint8(wire.Version)
	if h.Flags&wire.FlagV2 != 0 {
		ver = wire.Version2
	}
	c.mu.Lock()
	c.peerVer[addr] = ver
	c.mu.Unlock()
	return h.Flags&wire.FlagReady != 0, nil
}

// ---- one-shot probes (CLI, tests) ----

// ProbePing dials addr fresh and checks readiness. For long-lived
// callers Client.Ping (pooled) is cheaper; this is the CLI's one-shot.
func ProbePing(addr string, timeout time.Duration) (bool, error) {
	pc, err := dialPeer(addr, timeout)
	if err != nil {
		return false, err
	}
	defer pc.close()
	pc.wbuf = wire.AppendPing(pc.wbuf[:0], 1)
	h, _, err := pc.roundTripDeadline(time.Now().Add(timeout), pc.wbuf)
	if err != nil {
		return false, err
	}
	if h.Type != wire.TypePong {
		return false, fmt.Errorf("wire: unexpected %s frame", wire.TypeName(h.Type))
	}
	return h.Flags&wire.FlagReady != 0, nil
}

// ProbeWire dials addr fresh and reports the highest wire version the
// peer advertises alongside readiness — `fftcluster ping` uses it to
// show which nodes would carry trace context during a rolling upgrade.
func ProbeWire(addr string, timeout time.Duration) (version uint8, ready bool, err error) {
	pc, err := dialPeer(addr, timeout)
	if err != nil {
		return 0, false, err
	}
	defer pc.close()
	pc.wbuf = wire.AppendPing(pc.wbuf[:0], 1)
	h, _, err := pc.roundTripDeadline(time.Now().Add(timeout), pc.wbuf)
	if err != nil {
		return 0, false, err
	}
	if h.Type != wire.TypePong {
		return 0, false, fmt.Errorf("wire: unexpected %s frame", wire.TypeName(h.Type))
	}
	version = wire.Version
	if h.Flags&wire.FlagV2 != 0 {
		version = wire.Version2
	}
	return version, h.Flags&wire.FlagReady != 0, nil
}

// ProbeStatus dials addr fresh and fetches its NodeStatus.
func ProbeStatus(addr string, timeout time.Duration) (NodeStatus, error) {
	pc, err := dialPeer(addr, timeout)
	if err != nil {
		return NodeStatus{}, err
	}
	defer pc.close()
	pc.wbuf = wire.AppendStatusReq(pc.wbuf[:0], 1)
	h, payload, err := pc.roundTripDeadline(time.Now().Add(timeout), pc.wbuf)
	if err != nil {
		return NodeStatus{}, err
	}
	if h.Type != wire.TypeStatusResp {
		return NodeStatus{}, fmt.Errorf("wire: unexpected %s frame", wire.TypeName(h.Type))
	}
	var s NodeStatus
	if err := json.Unmarshal(payload, &s); err != nil {
		return NodeStatus{}, fmt.Errorf("cluster: status payload: %w", err)
	}
	return s, nil
}

// ---- connection pool ----

// connPool keeps idle connections to one peer. Each RPC holds one
// connection exclusively (the protocol is synchronous per connection);
// concurrent RPCs to the same peer each get their own.
type connPool struct {
	addr        string
	dialTimeout time.Duration

	mu     sync.Mutex
	idle   []*pconn
	closed bool
}

// pconn is one pooled connection with its reusable wire buffers.
type pconn struct {
	c    net.Conn
	hdr  [wire.HeaderSize]byte
	wbuf []byte
	rbuf []byte
}

func dialPeer(addr string, timeout time.Duration) (*pconn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // RPC frames are latency-bound, not throughput-bound
	}
	return &pconn{c: conn}, nil
}

func (p *connPool) get(ctx context.Context) (*pconn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	timeout := p.dialTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		return nil, context.DeadlineExceeded
	}
	return dialPeer(p.addr, timeout)
}

func (p *connPool) put(pc *pconn) {
	p.mu.Lock()
	if p.closed || len(p.idle) >= 4 {
		p.mu.Unlock()
		pc.close()
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, pc := range idle {
		pc.close()
	}
}

func (pc *pconn) close() { _ = pc.c.Close() }

// roundTrip writes frame and reads one response frame, bounded by the
// sooner of timeout and ctx's deadline. The returned payload aliases
// pc.rbuf and is valid until the next use of pc.
func (pc *pconn) roundTrip(ctx context.Context, timeout time.Duration, frame []byte) (wire.Header, []byte, error) {
	deadline := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	// Cancellation must unblock the conn I/O immediately, not at the
	// RPC deadline: when a hedged round's winner returns, tryRound
	// cancels the losers, and before this hook each loser sat in
	// ReadFull for the rest of the RPC budget (up to 30s) pinning its
	// goroutine and pooled conn. Poking the deadline into the past
	// fails the pending read now; the poked conn is safe to reuse
	// because every round trip re-arms the deadline on entry.
	stop := context.AfterFunc(ctx, func() {
		_ = pc.c.SetDeadline(time.Now())
	})
	defer stop()
	h, payload, err := pc.roundTripDeadline(deadline, frame)
	if err != nil && ctx.Err() != nil {
		// Report the cancellation, not the manufactured i/o timeout.
		err = ctx.Err()
	}
	return h, payload, err
}

func (pc *pconn) roundTripDeadline(deadline time.Time, frame []byte) (wire.Header, []byte, error) {
	if err := pc.c.SetDeadline(deadline); err != nil {
		return wire.Header{}, nil, err
	}
	if _, err := pc.c.Write(frame); err != nil {
		return wire.Header{}, nil, err
	}
	if _, err := io.ReadFull(pc.c, pc.hdr[:]); err != nil {
		return wire.Header{}, nil, err
	}
	h, err := wire.ParseHeader(pc.hdr[:])
	if err != nil {
		return wire.Header{}, nil, err
	}
	if cap(pc.rbuf) < int(h.Len) {
		pc.rbuf = make([]byte, h.Len)
	}
	pc.rbuf = pc.rbuf[:h.Len]
	if _, err := io.ReadFull(pc.c, pc.rbuf); err != nil {
		return wire.Header{}, nil, err
	}
	return h, pc.rbuf, nil
}
