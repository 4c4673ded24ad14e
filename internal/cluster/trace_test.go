package cluster

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/plancache"
)

// traceByteTotals sums the wire byte counts of the tracer's local
// (non-remote) spans — the client-side accounting that must reconcile
// exactly against the client's wire-level counters.
func traceByteTotals(spans []obs.SpanData) (sent, recv int64) {
	for _, s := range spans {
		if s.Remote {
			continue
		}
		sent += s.BytesSent
		recv += s.BytesRecv
	}
	return sent, recv
}

// assertSingleTree checks every span reaches the given root by parent
// links: the assembled trace is one tree, not fragments.
func assertSingleTree(t *testing.T, spans []obs.SpanData, rootID int) {
	t.Helper()
	parents := map[int]int{}
	for _, s := range spans {
		parents[s.ID] = s.Parent
	}
	for _, s := range spans {
		id := s.ID
		for parents[id] != 0 {
			id = parents[id]
		}
		if id != rootID {
			t.Errorf("span %d %q (parent %d) is not attached to the request tree", s.ID, s.Name, s.Parent)
		}
	}
}

// TestClusterTraceAssembly pins the tentpole acceptance: a traced
// forwarded transform yields one tree containing the remote node's
// spans, the local spans' byte totals match the client's wire counters
// exactly, and the tree exports through the Chrome trace_event path.
func TestClusterTraceAssembly(t *testing.T) {
	cache := plancache.New(8)
	node, err := Listen("127.0.0.1:0", NodeConfig{Exec: planExecutor(cache)})
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
	before := client.Metrics()
	for i := 0; i < 32 && client.Metrics().Forwarded == 0; i++ {
		if _, err := client.Transform(ctx, shapeOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	m := client.Metrics().Sub(before)
	if m.Forwarded == 0 {
		t.Fatal("no transform was forwarded")
	}

	if tr.TraceID() == 0 {
		t.Error("routing a traced request did not mint a trace ID")
	}
	snap := tr.Snapshot()
	assertSingleTree(t, snap, root.ID())

	var attempt, remoteRPC bool
	for _, s := range snap {
		switch {
		case s.Name == "cluster.attempt" && !s.Remote:
			if !strings.Contains(s.Detail, "peer=") || !strings.Contains(s.Detail, "kind=") {
				t.Errorf("attempt span detail %q lacks peer/kind tags", s.Detail)
			}
			// Attempts against self execute locally and legitimately move
			// no wire bytes; only remote attempts must carry frame counts.
			if strings.Contains(s.Detail, "peer=client") {
				continue
			}
			attempt = true
			if s.BytesSent == 0 || s.BytesRecv == 0 {
				t.Errorf("remote attempt span has no wire byte counts: %+v", s)
			}
		case s.Name == "cluster.rpc" && s.Remote:
			remoteRPC = true
			if s.BytesSent == 0 || s.BytesRecv == 0 {
				t.Errorf("remote rpc span has no frame byte counts: %+v", s)
			}
			if !strings.Contains(s.Detail, "node=") {
				t.Errorf("remote rpc span detail %q lacks node tag", s.Detail)
			}
		}
	}
	if !attempt {
		t.Fatal("no local cluster.attempt span")
	}
	if !remoteRPC {
		t.Fatal("no grafted remote cluster.rpc span — cross-node assembly failed")
	}

	sent, recv := traceByteTotals(snap)
	if sent != m.WireBytesSent || recv != m.WireBytesRecv {
		t.Fatalf("span byte totals %d/%d do not match wire counters %d/%d exactly",
			sent, recv, m.WireBytesSent, m.WireBytesRecv)
	}
	if m.CommFloorBytes <= 0 {
		t.Fatal("no communication floor accumulated for the forwarded transform")
	}
	ratio := float64(m.WireBytesSent+m.WireBytesRecv) / float64(m.CommFloorBytes)
	if ratio < 1.0 {
		t.Fatalf("serving-path roofline ratio %v < 1.0: achieved bytes fell below the floor", ratio)
	}

	if err := tr.WriteChromeTrace(io.Discard); err != nil {
		t.Fatalf("Chrome export of assembled trace: %v", err)
	}
}

// TestWireVersionNegotiation pins old/new interop: a v1-only peer (an
// old binary) serves a traced request from a new client bit-identically
// to a v2 peer — the client downgrades the frame, loses only the remote
// spans, and never desyncs the connection.
func TestWireVersionNegotiation(t *testing.T) {
	oldNode, err := Listen("127.0.0.1:0", NodeConfig{Exec: planExecutor(plancache.New(8)), WireV1Only: true})
	if err != nil {
		t.Fatal(err)
	}
	defer oldNode.Close()
	newNode, err := Listen("127.0.0.1:0", NodeConfig{Exec: planExecutor(plancache.New(8))})
	if err != nil {
		t.Fatal(err)
	}
	defer newNode.Close()

	// Every forwarded transform's output is compared against the local
	// reference executor: the result must not depend on which protocol
	// generation served it. Ring placement differs per node port, so
	// each run walks the shape set until transforms actually forward.
	ref := planExecutor(plancache.New(8))
	run := func(nodeAddr string) []obs.SpanData {
		reg := NewRegistry("client", []string{nodeAddr}, RegistryConfig{})
		client, err := NewClient(reg, ClientConfig{Self: "client", Local: planExecutor(plancache.New(8))})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		tr := obs.New()
		root := tr.Start("request")
		ctx := obs.WithTracer(obs.WithSpan(context.Background(), root), tr)
		forwarded := 0
		for i := 0; i < 32 && forwarded < 4; i++ {
			op := shapeOp(i)
			before := client.Metrics().Forwarded
			out, err := client.Transform(ctx, op)
			if err != nil {
				t.Fatalf("transform %d against %s: %v", i, nodeAddr, err)
			}
			if client.Metrics().Forwarded == before {
				continue // served locally; says nothing about interop
			}
			forwarded++
			want, err := ref(context.Background(), op)
			if err != nil {
				t.Fatalf("reference %d: %v", i, err)
			}
			for j := range want {
				//fftlint:ignore floatcmp version negotiation must not change results at all
				if out[j] != want[j] {
					t.Fatalf("shape %d sample %d: peer %s returned %v, reference %v", i, j, nodeAddr, out[j], want[j])
				}
			}
		}
		if forwarded == 0 {
			t.Fatal("no transform was forwarded")
		}
		root.End()
		return tr.Snapshot()
	}

	oldSpans := run(oldNode.Addr())
	newSpans := run(newNode.Addr())

	countRemote := func(spans []obs.SpanData) int {
		n := 0
		for _, s := range spans {
			if s.Remote {
				n++
			}
		}
		return n
	}
	if n := countRemote(oldSpans); n != 0 {
		t.Errorf("v1 peer returned %d remote spans; old binaries cannot", n)
	}
	if n := countRemote(newSpans); n == 0 {
		t.Error("v2 peer returned no remote spans")
	}
}

// TestClusterAssembledTraceFailover is the 3-node race-mode pin: one
// traced batch spanning a mid-batch node kill still assembles into a
// single tree whose local byte totals match the wire counters exactly,
// with the failover attempts visible in the tree.
func TestClusterAssembledTraceFailover(t *testing.T) {
	// HedgeDelay is generous: with an aggressive hedge the local replica
	// wins every race under the race detector's slowdown, cancelling all
	// remote attempts and leaving nothing to assemble. Failover on hard
	// errors (the killed node) is what this test pins, and that path
	// does not depend on the hedge timer.
	tc := startTestCluster(t, 3, ClientConfig{
		HedgeDelay:  250 * time.Millisecond,
		RPCTimeout:  2 * time.Second,
		BackoffBase: 2 * time.Millisecond,
	})
	client := tc.clients[0]
	ops := batchSpecs()

	tr := obs.New()
	root := tr.Start("batch")
	ctx := obs.WithTracer(obs.WithSpan(context.Background(), root), tr)
	before := client.Metrics()

	var wg sync.WaitGroup
	errs := make([]error, len(ops))
	killed := make(chan struct{})
	for i, op := range ops {
		wg.Add(1)
		go func(i int, op *wire.TransformOp) {
			defer wg.Done()
			if i == len(ops)/4 {
				_ = tc.nodes[1].Close()
				close(killed)
			} else if i > len(ops)/4 {
				<-killed
			}
			cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			_, errs[i] = client.Transform(cctx, op)
		}(i, op)
	}
	wg.Wait()
	root.End()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("transform %d failed: %v", i, err)
		}
	}

	// Canceled hedge losers may still be ending their spans; their
	// conns were poked, so they settle within the RPC timeout. Wait for
	// byte totals to converge with the counters instead of sleeping.
	m := client.Metrics().Sub(before)
	var sent, recv int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		m = client.Metrics().Sub(before)
		sent, recv = traceByteTotals(tr.Snapshot())
		if sent == m.WireBytesSent && recv == m.WireBytesRecv {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("span byte totals %d/%d never converged to wire counters %d/%d",
				sent, recv, m.WireBytesSent, m.WireBytesRecv)
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap := tr.Snapshot()
	assertSingleTree(t, snap, root.ID())

	var remote, failover int
	for _, s := range snap {
		if s.Remote {
			remote++
		}
		if s.Name == "cluster.attempt" && strings.Contains(s.Detail, "kind=failover") {
			failover++
		}
	}
	if remote == 0 {
		t.Fatal("assembled batch trace has no remote spans")
	}
	if m.Failovers > 0 && failover == 0 {
		t.Errorf("client recorded %d failovers but the trace has no failover attempt spans", m.Failovers)
	}

	if m.CommFloorBytes <= 0 {
		t.Fatal("no communication floor accumulated")
	}
	if ratio := float64(m.WireBytesSent+m.WireBytesRecv) / float64(m.CommFloorBytes); ratio < 1.0 {
		t.Fatalf("roofline ratio %v < 1.0 across the failover batch", ratio)
	}
	if err := tr.WriteChromeTrace(io.Discard); err != nil {
		t.Fatalf("Chrome export: %v", err)
	}
	t.Logf("batch trace: %d spans (%d remote, %d failover attempts), ratio=%.3f",
		len(snap), remote, failover,
		float64(m.WireBytesSent+m.WireBytesRecv)/float64(m.CommFloorBytes))
}

// TestHedgeOutcomeCounters drives a hedge race and checks the outcome
// counters stay consistent: every hedged attempt resolves to exactly
// one of won, lost or canceled.
func TestHedgeOutcomeCounters(t *testing.T) {
	// Every executor, local or remote, stalls well past HedgeDelay, so
	// each routed transform's primary is still running when the hedge
	// timer fires: the race happens however fast the machine is.
	stalled := func(cache *plancache.Cache) Executor {
		exec := planExecutor(cache)
		return func(ctx context.Context, op *wire.TransformOp) ([]complex128, error) {
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return exec(ctx, op)
		}
	}
	tc := startTestClusterExec(t, 3, ClientConfig{
		HedgeDelay:  1 * time.Millisecond, // hedge aggressively
		RPCTimeout:  2 * time.Second,
		BackoffBase: 2 * time.Millisecond,
	}, stalled)
	client := tc.clients[0]
	for i, op := range batchSpecs() {
		if _, err := client.Transform(context.Background(), op); err != nil {
			t.Fatalf("transform %d: %v", i, err)
		}
	}
	// Let canceled losers settle before reading.
	deadline := time.Now().Add(5 * time.Second)
	var m ClientMetrics
	for {
		m = client.Metrics()
		if m.HedgeWon+m.HedgeLost+m.HedgeCanceled >= m.Hedged {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m.Hedged == 0 {
		t.Fatal("no hedge fired although every executor stalls past HedgeDelay")
	}
	total := m.HedgeWon + m.HedgeLost + m.HedgeCanceled
	if total != m.Hedged {
		t.Fatalf("hedge outcomes won=%d lost=%d canceled=%d sum to %d, want %d launched",
			m.HedgeWon, m.HedgeLost, m.HedgeCanceled, total, m.Hedged)
	}
}
