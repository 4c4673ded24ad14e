package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/plancache"
)

// planExecutor builds the same plan-cache-backed executor fftd uses, so
// cluster results are bit-identical to single-node serving.
func planExecutor(cache *plancache.Cache) Executor {
	return func(ctx context.Context, op *wire.TransformOp) ([]complex128, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if op.Real {
			p, err := cache.RealPlan(len(op.RealInput))
			if err != nil {
				return nil, err
			}
			return p.Forward(op.RealInput), nil
		}
		p, err := cache.ComplexPlan(len(op.Input))
		if err != nil {
			return nil, err
		}
		out := make([]complex128, len(op.Input))
		switch {
		case op.Inverse:
			p.Inverse(out, op.Input)
		case op.NoReorder:
			p.TransformNoReorder(out, op.Input)
		default:
			p.Transform(out, op.Input)
		}
		return out, nil
	}
}

// testCluster is a 3-node in-process ring: every node has its own plan
// cache, listener, registry and client, exactly as three fftd processes
// would.
type testCluster struct {
	nodes   []*Node
	regs    []*Registry
	clients []*Client
	addrs   []string
}

func startTestCluster(t *testing.T, n int, clientCfg ClientConfig) *testCluster {
	t.Helper()
	return startTestClusterExec(t, n, clientCfg, planExecutor)
}

// startTestClusterExec is startTestCluster with every node's executor,
// and every client's default local executor, built by mkExec over its
// own plan cache.
func startTestClusterExec(t *testing.T, n int, clientCfg ClientConfig, mkExec func(*plancache.Cache) Executor) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		node, err := Listen("127.0.0.1:0", NodeConfig{Exec: mkExec(plancache.New(32))})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		tc.nodes = append(tc.nodes, node)
		tc.addrs = append(tc.addrs, node.Addr())
	}
	for i := 0; i < n; i++ {
		peers := make([]string, 0, n-1)
		for j, a := range tc.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		reg := NewRegistry(tc.addrs[i], peers, RegistryConfig{FailThreshold: 2})
		cfg := clientCfg
		cfg.Self = tc.addrs[i]
		if cfg.Local == nil {
			cfg.Local = mkExec(plancache.New(32))
		}
		client, err := NewClient(reg, cfg)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		tc.regs = append(tc.regs, reg)
		tc.clients = append(tc.clients, client)
	}
	t.Cleanup(func() {
		for _, c := range tc.clients {
			c.Close()
		}
		for _, r := range tc.regs {
			r.Stop()
		}
		for _, nd := range tc.nodes {
			_ = nd.Close()
		}
	})
	return tc
}

// shapeOp builds the i-th of 32 distinct plan shapes (16 power-of-two
// sizes × forward/inverse). Ring placement depends on the node's
// ephemeral port, so a small fixed shape set can hash entirely to the
// local member and never forward; the "try shapes until one forwards"
// loops draw from these 32 to push the no-forward probability to
// ~2^-32.
func shapeOp(i int) *wire.TransformOp {
	return &wire.TransformOp{Input: randComplexT(2<<(i%16), int64(i)), Inverse: i >= 16}
}

func randComplexT(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return xs
}

// batchSpecs builds 64 transforms of mixed shapes and sizes, so the
// batch spreads across every ring member.
func batchSpecs() []*wire.TransformOp {
	ops := make([]*wire.TransformOp, 0, 64)
	sizes := []int{64, 128, 256, 512, 1024}
	for i := 0; i < 64; i++ {
		n := sizes[i%len(sizes)]
		op := &wire.TransformOp{Input: randComplexT(n, int64(100+i))}
		switch i % 4 {
		case 1:
			op.Inverse = true
		case 2:
			op.NoReorder = true
		case 3:
			op.Real = true
			op.Input = nil
			rng := rand.New(rand.NewSource(int64(200 + i)))
			op.RealInput = make([]float64, n)
			for j := range op.RealInput {
				op.RealInput[j] = rng.NormFloat64()
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// TestClusterBatchBitIdentical pins the acceptance criterion: a 3-node
// cluster serves a 64-transform batch with results bit-identical to
// single-node execution, and the batch actually exercised remote
// forwarding.
func TestClusterBatchBitIdentical(t *testing.T) {
	tc := startTestCluster(t, 3, ClientConfig{})
	client := tc.clients[0]
	ref := planExecutor(plancache.New(32)) // the "single-node fftd" reference
	ctx := context.Background()

	for i, op := range batchSpecs() {
		got, err := client.Transform(ctx, op)
		if err != nil {
			t.Fatalf("transform %d: %v", i, err)
		}
		want, err := ref(ctx, op)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("transform %d: got %d samples, want %d", i, len(got), len(want))
		}
		for j := range got {
			//fftlint:ignore floatcmp the acceptance criterion is bit-identical cluster vs single-node output
			if got[j] != want[j] {
				t.Fatalf("transform %d sample %d: cluster %v, single-node %v", i, j, got[j], want[j])
			}
		}
	}

	m := client.Metrics()
	if m.Forwarded == 0 {
		t.Fatal("no transform was forwarded; the batch never left the local node")
	}
	if m.Local == 0 {
		t.Fatal("no transform ran locally; ring assigns nothing to self")
	}
	t.Logf("routing: %+v", m)
}

// TestClusterFailoverMidBatch pins the failover criterion: killing one
// of three nodes mid-batch loses zero requests — hedged retries and
// failover pick a live peer for every transform.
func TestClusterFailoverMidBatch(t *testing.T) {
	tc := startTestCluster(t, 3, ClientConfig{
		HedgeDelay:  5 * time.Millisecond,
		RPCTimeout:  2 * time.Second,
		BackoffBase: 2 * time.Millisecond,
	})
	client := tc.clients[0]
	ops := batchSpecs()

	var wg sync.WaitGroup
	errs := make([]error, len(ops))
	killed := make(chan struct{})
	for i, op := range ops {
		wg.Add(1)
		go func(i int, op *wire.TransformOp) {
			defer wg.Done()
			if i == len(ops)/4 {
				// A quarter of the way in, kill the node that owns some
				// of the remaining shards.
				_ = tc.nodes[1].Close()
				close(killed)
			} else if i > len(ops)/4 {
				<-killed // make sure most requests race against the dead node
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, errs[i] = client.Transform(ctx, op)
		}(i, op)
	}
	wg.Wait()

	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			t.Errorf("transform %d failed: %v", i, err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d requests failed after killing one node; hedged failover must lose zero", failed, len(ops))
	}
	m := client.Metrics()
	if m.Failovers == 0 && m.Hedged == 0 && m.Retries == 0 {
		t.Logf("warning: batch finished without touching the dead node (routing: %+v)", m)
	}
	t.Logf("routing after failover: %+v", m)
}

// TestClusterHeartbeatRemovesAndReaddsPeer exercises the registry loop
// against live nodes: a dead peer leaves the ring after FailThreshold
// heartbeats; a restarted one rejoins.
func TestClusterHeartbeatRemovesAndReaddsPeer(t *testing.T) {
	tc := startTestCluster(t, 3, ClientConfig{})
	client := tc.clients[0]
	reg := tc.regs[0]
	reg.Start(10*time.Millisecond, client.Ping)

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s (ring: %v)", what, reg.Ring().Members())
	}
	waitFor(func() bool { return reg.Ring().Size() == 3 }, "full ring")

	deadAddr := tc.addrs[2]
	_ = tc.nodes[2].Close()
	waitFor(func() bool { return reg.Ring().Size() == 2 }, "dead peer removal")

	// Restart a node on the same address; the heartbeat re-adds it.
	cache := plancache.New(8)
	node, err := Listen(deadAddr, NodeConfig{ID: deadAddr, Exec: planExecutor(cache)})
	if err != nil {
		t.Fatalf("restart node: %v", err)
	}
	defer node.Close()
	waitFor(func() bool { return reg.Ring().Size() == 3 }, "recovered peer re-add")
}

// TestClusterDrainReadiness verifies readiness (not liveness) gates
// routing: a draining node answers pings but reports not ready, and the
// registry pulls it from the ring without marking it dead.
func TestClusterDrainReadiness(t *testing.T) {
	cache := plancache.New(8)
	var draining bool
	var mu sync.Mutex
	node, err := Listen("127.0.0.1:0", NodeConfig{
		Exec: planExecutor(cache),
		Ready: func() bool {
			mu.Lock()
			defer mu.Unlock()
			return !draining
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ready, err := ProbePing(node.Addr(), time.Second)
	if err != nil || !ready {
		t.Fatalf("fresh node: ready=%v err=%v", ready, err)
	}
	mu.Lock()
	draining = true
	mu.Unlock()
	ready, err = ProbePing(node.Addr(), time.Second)
	if err != nil {
		t.Fatalf("ping during drain must succeed (liveness), got %v", err)
	}
	if ready {
		t.Fatal("draining node reported ready")
	}

	reg := NewRegistry("self:0", []string{node.Addr()}, RegistryConfig{})
	reg.Observe(node.Addr(), false, nil)
	if got := reg.Ring().Size(); got != 1 {
		t.Fatalf("draining peer still in ring (size %d)", got)
	}
	infos := reg.Peers()
	if !infos[0].Alive || infos[0].Ready {
		t.Fatalf("drained peer state: %+v", infos[0])
	}
}

// TestClusterStatusRPC checks the status surface the fftcluster CLI is
// built on.
func TestClusterStatusRPC(t *testing.T) {
	cache := plancache.New(8)
	node, err := Listen("127.0.0.1:0", NodeConfig{
		Exec: planExecutor(cache),
		StatusExtra: func(s *NodeStatus) {
			st := cache.Stats()
			s.PlanCache = &st
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	reg := NewRegistry("client", []string{node.Addr()}, RegistryConfig{})
	client, err := NewClient(reg, ClientConfig{Self: "client", Local: planExecutor(plancache.New(8))})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Force one remote transform so counters move: a ring with one
	// remote-only... self is also a member, so pick ops until forwarded.
	ctx := context.Background()
	for i := 0; i < 32 && client.Metrics().Forwarded == 0; i++ {
		op := shapeOp(i)
		if _, err := client.Transform(ctx, op); err != nil {
			t.Fatalf("transform %d: %v", i, err)
		}
	}
	if client.Metrics().Forwarded == 0 {
		t.Fatal("no shape hashed to the remote node")
	}

	st, err := ProbeStatus(node.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != node.ID() || !st.Ready || st.TransformRPCs == 0 {
		t.Fatalf("status: %+v", st)
	}
	if st.PlanCache == nil || st.PlanCache.Size == 0 {
		t.Fatalf("status plan cache missing: %+v", st.PlanCache)
	}
}

// TestClusterSpanPropagation checks cross-node span correlation: the
// client's route span and the node's RPC span both carry structured
// identifiers, and the node's span embeds the wire request ID.
func TestClusterSpanPropagation(t *testing.T) {
	cache := plancache.New(8)
	nodeTracer := obs.New()
	node, err := Listen("127.0.0.1:0", NodeConfig{Exec: planExecutor(cache), Obs: nodeTracer})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	reg := NewRegistry("client", []string{node.Addr()}, RegistryConfig{})
	client, err := NewClient(reg, ClientConfig{Self: "client", Local: planExecutor(plancache.New(8))})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tr := obs.New()
	root := tr.Start("request")
	ctx := obs.WithTracer(obs.WithSpan(context.Background(), root), tr)
	for i := 0; i < 32 && client.Metrics().Forwarded == 0; i++ {
		op := shapeOp(i)
		if _, err := client.Transform(ctx, op); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	if client.Metrics().Forwarded == 0 {
		t.Fatal("no transform was forwarded")
	}

	var routeSpan bool
	for _, s := range tr.Snapshot() {
		if s.Name == "cluster.route" && s.Cat == obs.CatCluster && strings.Contains(s.Detail, "owner=") {
			routeSpan = true
			if s.Parent == 0 {
				t.Error("route span is not nested under the request span")
			}
		}
	}
	if !routeSpan {
		t.Fatal("client tracer has no cluster.route span")
	}

	var rpcSpan bool
	for _, s := range nodeTracer.Snapshot() {
		if s.Name == "cluster.rpc" && s.Cat == obs.CatCluster && strings.Contains(s.Detail, "rid=") {
			rpcSpan = true
		}
	}
	if !rpcSpan {
		t.Fatal("node tracer has no cluster.rpc span carrying the wire request ID")
	}
}

// TestClientBreakerSkipsDeadPeer drives the breaker through the data
// path: once a peer's circuit opens, attempts skip it without dialing.
func TestClientBreakerSkipsDeadPeer(t *testing.T) {
	// One live node plus one address nobody listens on.
	cache := plancache.New(8)
	node, err := Listen("127.0.0.1:0", NodeConfig{Exec: planExecutor(cache)})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	dead := "127.0.0.1:1" // reserved port: dial fails immediately

	reg := NewRegistry("client", []string{node.Addr(), dead}, RegistryConfig{FailThreshold: 100})
	client, err := NewClient(reg, ClientConfig{
		Self:             "client",
		Local:            planExecutor(plancache.New(8)),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		BackoffBase:      time.Millisecond,
		DialTimeout:      200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	// Run enough mixed shapes that some hash to the dead peer; every
	// request must still succeed via failover.
	for i := 0; i < 48; i++ {
		op := &wire.TransformOp{Input: randComplexT(64<<(i%5), int64(i)), Inverse: i%2 == 0}
		if _, err := client.Transform(ctx, op); err != nil {
			t.Fatalf("transform %d: %v", i, err)
		}
	}
	m := client.Metrics()
	if m.BreakerSkips == 0 {
		t.Fatalf("breaker never opened for the dead peer: %+v", m)
	}
	states := client.BreakerStates()
	if states[dead] != "open" {
		t.Fatalf("dead peer breaker state = %q, want open (states: %v)", states[dead], states)
	}
	t.Logf("routing with dead peer: %+v", m)
}

// TestClusterRemoteErrorNotRetried checks that application-level
// failures from a peer come back as RemoteError without burning
// retries or hedges.
func TestClusterRemoteErrorNotRetried(t *testing.T) {
	boom := func(ctx context.Context, op *wire.TransformOp) ([]complex128, error) {
		return nil, fmt.Errorf("plan: length %d is not a power of two", op.N())
	}
	node, err := Listen("127.0.0.1:0", NodeConfig{Exec: boom})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	reg := NewRegistry("client", []string{node.Addr()}, RegistryConfig{})
	client, err := NewClient(reg, ClientConfig{Self: "client", Local: planExecutor(plancache.New(8))})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	var remote *RemoteError
	sawRemote := false
	for i := 0; i < 32 && !sawRemote; i++ {
		op := shapeOp(i)
		_, err := client.Transform(ctx, op)
		if err != nil {
			if !errors.As(err, &remote) {
				t.Fatalf("want RemoteError, got %T: %v", err, err)
			}
			sawRemote = true
		}
	}
	if !sawRemote {
		t.Fatal("no shape hashed to the failing node")
	}
	if !strings.Contains(remote.Msg, "power of two") {
		t.Fatalf("remote message lost: %q", remote.Msg)
	}
	if m := client.Metrics(); m.Retries != 0 {
		t.Fatalf("remote application error burned %d retry rounds", m.Retries)
	}
}
