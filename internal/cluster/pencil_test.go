package cluster

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/fft"
	"repro/internal/pencil"
	"repro/internal/plancache"
)

// startPencilCluster is startTestCluster with a pencil worker installed
// on every node, the configuration fftd runs with.
func startPencilCluster(t *testing.T, n int, v1Only map[int]bool) (*testCluster, []*pencil.Worker) {
	t.Helper()
	tc := &testCluster{}
	workers := make([]*pencil.Worker, n)
	for i := 0; i < n; i++ {
		cache := plancache.New(32)
		workers[i] = pencil.NewWorker(pencil.WorkerConfig{Plans: cache})
		w := workers[i]
		node, err := Listen("127.0.0.1:0", NodeConfig{
			Exec:        planExecutor(cache),
			Pencil:      w,
			PencilStats: func() *pencil.WorkerStats { s := w.Stats(); return &s },
			WireV1Only:  v1Only[i],
		})
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
		client, err := NewClient(reg, ClientConfig{
			Self:  tc.addrs[i],
			Local: planExecutor(plancache.New(32)),
		})
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
	return tc, workers
}

// TestPencilClusterBitIdenticalTCP pins the acceptance criterion over
// real sockets: a 3-node cluster computes 2D pencil FFTs bit-identical
// to single-node Plan2D for a square, a non-square and a non-power-of-
// two shape, forward and inverse.
func TestPencilClusterBitIdenticalTCP(t *testing.T) {
	tc, workers := startPencilCluster(t, 3, nil)
	transport := &PencilTransport{Client: tc.clients[0], Self: tc.addrs[0], Local: workers[0]}

	shapes := []struct{ rows, cols int }{{16, 16}, {8, 32}, {12, 20}}
	for _, sh := range shapes {
		for _, inverse := range []bool{false, true} {
			in := randComplexT(sh.rows*sh.cols, int64(sh.rows*1000+sh.cols))
			ref, err := fft.NewPlan2D(sh.rows, sh.cols)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]complex128, len(in))
			if inverse {
				ref.Inverse(want, in)
			} else {
				ref.Transform(want, in)
			}

			got := make([]complex128, len(in))
			stats, err := pencil.Run(context.Background(), pencil.Config{
				Shape:     pencil.Shape2D(sh.rows, sh.cols),
				Inverse:   inverse,
				Workers:   tc.addrs,
				Transport: transport,
			}, pencil.SliceSource{Data: in, Cols: sh.cols}, pencil.SliceSink{Data: got, Cols: sh.cols})
			if err != nil {
				t.Fatalf("%dx%d inverse=%v: %v", sh.rows, sh.cols, inverse, err)
			}
			if stats.Workers != 3 {
				t.Fatalf("%dx%d: ran on %d workers, want 3", sh.rows, sh.cols, stats.Workers)
			}
			if stats.WireBytesSent == 0 || stats.WireBytesRecv == 0 {
				t.Fatalf("%dx%d: no wire traffic recorded (%+v)", sh.rows, sh.cols, stats)
			}
			if stats.CommFloorBytes <= 0 || stats.RooflineRatio < 1 {
				t.Fatalf("%dx%d: bad comm accounting: floor=%d ratio=%g", sh.rows, sh.cols, stats.CommFloorBytes, stats.RooflineRatio)
			}
			for i := range got {
				//fftlint:ignore floatcmp the acceptance criterion is bit-identical distributed vs single-node output
				if got[i] != want[i] {
					t.Fatalf("%dx%d inverse=%v sample %d: cluster %v, Plan2D %v", sh.rows, sh.cols, inverse, i, got[i], want[i])
				}
			}
		}
	}
	for i, w := range workers {
		st := w.Stats()
		if st.OpenJobs != 0 || st.BytesInUse != 0 {
			t.Fatalf("worker %d leaked: %+v", i, st)
		}
	}
	// The remote nodes really served pencil traffic.
	served := int64(0)
	for _, nd := range tc.nodes[1:] {
		served += nd.Status().PencilRPCs
	}
	if served == 0 {
		t.Fatal("no remote pencil RPCs recorded; run never left the coordinator node")
	}
}

// killerTransport closes a victim node after its second deposit,
// simulating a node dying mid-transpose with band state loaded.
type killerTransport struct {
	inner    pencil.Transport
	victim   string
	node     *Node
	deposits atomic.Int64 // deposit calls to the victim
	once     sync.Once

	completed atomic.Int64 // deposits that succeeded, on any peer
	landedAt  atomic.Int64 // completed deposits when the victim died; -1 until then
}

func (k *killerTransport) Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (int64, int64, error) {
	if peer == k.victim && req.Sub == wire.PencilDeposit && k.deposits.Add(1) > 2 {
		k.once.Do(func() {
			k.landedAt.Store(k.completed.Load())
			_ = k.node.Close()
		})
	}
	sent, recv, err := k.inner.Call(ctx, peer, req, resp)
	if err == nil && req.Sub == wire.PencilDeposit {
		k.completed.Add(1)
	}
	return sent, recv, err
}

// TestPencilClusterNodeKillTCP kills a real TCP node mid-transpose: the
// run must fail with a clean error naming the peer, must not hang, must
// not have written a single shard to the sink, and must not leave a
// goroutine behind. The healthy peer stays healthy: the coordinator
// cancels its in-flight calls when the victim fails, and a canceled
// call must not count against it in the registry. The coordinator's
// 8192-byte cap stages 8 of the 32 rows at a time, so one wave deposits
// four times with each band owner and the victim dies at its third.
func TestPencilClusterNodeKillTCP(t *testing.T) {
	tc, workers := startPencilCluster(t, 3, nil)
	base := &PencilTransport{Client: tc.clients[0], Self: tc.addrs[0], Local: workers[0]}
	victim, healthy := tc.addrs[1], tc.addrs[2]
	transport := &killerTransport{inner: base, victim: victim, node: tc.nodes[1]}
	transport.landedAt.Store(-1)

	rows, cols := 32, 32
	in := randComplexT(rows*cols, 7)
	sink := &countingPencilSink{inner: pencil.SliceSink{Data: make([]complex128, len(in)), Cols: cols}}

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := pencil.Run(context.Background(), pencil.Config{
			Shape:     pencil.Shape2D(rows, cols),
			Workers:   tc.addrs,
			Transport: transport,
			MemCap:    8192,
		}, pencil.SliceSource{Data: in, Cols: cols}, sink)
		done <- err
	}()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run succeeded despite node kill mid-transpose")
		}
		if !strings.Contains(err.Error(), victim) {
			t.Fatalf("error does not name the dead peer %s: %v", victim, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pencil run hung after node kill")
	}
	if n := sink.writes.Load(); n != 0 {
		t.Fatalf("failed run wrote %d shards to the sink; want none", n)
	}
	if at := transport.landedAt.Load(); at < 1 {
		t.Fatalf("victim died after %d completed deposits; want the kill to land after the first deposit", at)
	}
	for _, p := range tc.regs[0].Peers() {
		if p.ID == healthy && (p.ConsecFails != 0 || !p.InRing) {
			t.Fatalf("healthy peer after the kill: %+v; want no failures and still in the ring", p)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stallPencil stands in for a slow peer: every sub-operation blocks
// until released, signalling entered first.
type stallPencil struct {
	entered chan struct{}
	release chan struct{}
}

func (s stallPencil) ServePencil(ctx context.Context, op, resp *wire.PencilOp) error {
	s.entered <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
	}
	return nil
}

// TestPencilCanceledCallKeepsPeerHealthy — a call its caller canceled
// says nothing about the peer, so it must neither trip the breaker nor
// count as a registry failure.
func TestPencilCanceledCallKeepsPeerHealthy(t *testing.T) {
	stall := stallPencil{entered: make(chan struct{}, 1), release: make(chan struct{})}
	node, err := Listen("127.0.0.1:0", NodeConfig{
		Exec:   planExecutor(plancache.New(4)),
		Pencil: stall,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	defer close(stall.release)
	reg := NewRegistry("coordinator", []string{node.Addr()}, RegistryConfig{FailThreshold: 2})
	client, err := NewClient(reg, ClientConfig{
		Self:  "coordinator",
		Local: planExecutor(plancache.New(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	transport := &PencilTransport{Client: client, Self: "coordinator"}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		op := &wire.PencilOp{Sub: wire.PencilOpen, Dims: 2, Rows: 4, Cols: 4, ColN: 2, Job: 11}
		var resp wire.PencilOp
		_, _, err := transport.Call(ctx, node.Addr(), op, &resp)
		done <- err
	}()
	select {
	case <-stall.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the call never reached the peer")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled call succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled call did not return")
	}
	for _, p := range reg.Peers() {
		if p.ConsecFails != 0 || !p.InRing {
			t.Fatalf("peer after a canceled call: %+v; want no failures and still in the ring", p)
		}
	}
	if st := client.breaker(node.Addr()).state(); st != "closed" {
		t.Fatalf("breaker %s after a canceled call; want closed", st)
	}
}

type countingPencilSink struct {
	inner  pencil.SliceSink
	writes atomic.Int64
}

func (s *countingPencilSink) WriteBand(rowLo, nrows, colLo, ncols int, data []complex128) error {
	s.writes.Add(1)
	return s.inner.WriteBand(rowLo, nrows, colLo, ncols, data)
}

// TestPencilCapable pins the capability gate schedulers filter with: a
// v2 peer reports capable (resolving unknown capability with one
// handshake ping), a v1-only peer and an unreachable one do not.
func TestPencilCapable(t *testing.T) {
	tc, _ := startPencilCluster(t, 3, map[int]bool{2: true})
	c := tc.clients[0]
	ctx := context.Background()
	if !c.PencilCapable(ctx, tc.addrs[1]) {
		t.Fatal("v2 peer reported not pencil-capable")
	}
	if c.PencilCapable(ctx, tc.addrs[2]) {
		t.Fatal("v1-only peer reported pencil-capable")
	}
	if c.PencilCapable(ctx, "127.0.0.1:1") {
		t.Fatal("unreachable peer reported pencil-capable")
	}
}

// panicPencil stands in for a worker bug: every sub-operation panics.
type panicPencil struct{}

func (panicPencil) ServePencil(ctx context.Context, op, resp *wire.PencilOp) error {
	panic("band arithmetic exploded")
}

// TestPencilServePanicIsErrorResponse — a panic while serving a pencil
// frame must cost one error response, not the node's conn loop: the
// coordinator sees a RemoteError and the connection still serves pings.
func TestPencilServePanicIsErrorResponse(t *testing.T) {
	node, err := Listen("127.0.0.1:0", NodeConfig{
		Exec:   planExecutor(plancache.New(4)),
		Pencil: panicPencil{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	reg := NewRegistry("coordinator", []string{node.Addr()}, RegistryConfig{})
	client, err := NewClient(reg, ClientConfig{
		Self:  "coordinator",
		Local: planExecutor(plancache.New(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	transport := &PencilTransport{Client: client, Self: "coordinator"}

	op := &wire.PencilOp{Sub: wire.PencilOpen, Dims: 2, Rows: 4, Cols: 4, ColN: 2, Job: 1}
	var resp wire.PencilOp
	_, _, err = transport.Call(context.Background(), node.Addr(), op, &resp)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a remote error naming the panic", err)
	}
	if _, err := client.Ping(context.Background(), node.Addr()); err != nil {
		t.Fatalf("node no longer serves pings after a pencil panic: %v", err)
	}
}

// TestPencilClusterV1PeerRefused pins the version negotiation: a peer
// whose pong does not advertise wire v2 is refused before any pencil
// frame is sent, with an error saying why.
func TestPencilClusterV1PeerRefused(t *testing.T) {
	tc, workers := startPencilCluster(t, 2, map[int]bool{1: true})
	transport := &PencilTransport{Client: tc.clients[0], Self: tc.addrs[0], Local: workers[0]}

	in := randComplexT(16*16, 3)
	out := make([]complex128, len(in))
	_, err := pencil.Run(context.Background(), pencil.Config{
		Shape:     pencil.Shape2D(16, 16),
		Workers:   tc.addrs,
		Transport: transport,
	}, pencil.SliceSource{Data: in, Cols: 16}, pencil.SliceSink{Data: out, Cols: 16})
	if err == nil {
		t.Fatal("pencil run against a v1-only peer succeeded; want version refusal")
	}
	if !strings.Contains(err.Error(), "wire v1") {
		t.Fatalf("refusal does not explain the version gate: %v", err)
	}
}
