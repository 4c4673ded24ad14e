package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/fft"
	"repro/internal/netsim"
	"repro/internal/obs/roofline"
	"repro/internal/parfft"
	"repro/internal/pencil"
	"repro/internal/permute"
	"repro/internal/plancache"
	"repro/internal/server"
)

// Suite sizes. Serial kernels run at the paper's flagship N = 4096;
// the simulated machines run at N = 256 (a 16x16 mesh/hypermesh, an
// 8-cube) so one distributed FFT stays in the hundreds of microseconds
// and a sample holds several full runs. They are the machines fftd's
// /v1/simulate builds (a mesh with wrap links), with Workers: 1 so the
// simulation stays single-threaded and the measured signal is the
// schedule's work, not goroutine fan-out jitter.
const (
	serialN  = 4096
	dctN     = 1024
	machineN = 256
	httpN    = 1024
	// splitRadixN stresses the recursive split-radix kernel past the
	// L2-resident sizes the flagship suite covers.
	splitRadixN = 1 << 14
	// anyN is a non-power-of-two serving size: the Bluestein path.
	anyN = 1000
	// pencilRows x pencilCols is the distributed 2D pencil FFT: three
	// in-process workers behind the loopback wire codec, so the suite
	// tracks slab/band scheduling plus shard encode/decode without
	// socket noise.
	pencilRows = 64
	pencilCols = 64
)

// randComplex fills a deterministic pseudo-random input; every suite
// uses a fixed seed so runs are comparable across processes.
func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func randFloats(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// All returns every registered suite, in display order.
func All() []Suite {
	return []Suite{
		{Name: fmt.Sprintf("fft/transform/n%d", serialN), Setup: setupFFTTransform},
		{Name: fmt.Sprintf("fft/bitreverse/n%d", serialN), Setup: setupBitReverse},
		{Name: fmt.Sprintf("fft/real/n%d", serialN), Setup: setupReal},
		{Name: fmt.Sprintf("fft/splitradix/n%d", splitRadixN), Setup: setupSplitRadix},
		{Name: fmt.Sprintf("fft/anyplan/n%d", anyN), Setup: setupAnyPlan},
		{Name: fmt.Sprintf("fft/dct/n%d", dctN), Setup: setupDCT},
		{Name: fmt.Sprintf("parfft/mesh/n%d", machineN), Setup: setupParfft("mesh"), Comm: commParfft("mesh")},
		{Name: fmt.Sprintf("parfft/hypercube/n%d", machineN), Setup: setupParfft("hypercube"), Comm: commParfft("hypercube")},
		{Name: fmt.Sprintf("parfft/hypermesh/n%d", machineN), Setup: setupParfft("hypermesh"), Comm: commParfft("hypermesh")},
		{Name: "plancache/hit", Setup: setupPlanCacheHit},
		{Name: fmt.Sprintf("netsim/route/mesh/n%d", machineN), Setup: setupRoute("mesh")},
		{Name: fmt.Sprintf("netsim/route/hypercube/n%d", machineN), Setup: setupRoute("hypercube")},
		{Name: fmt.Sprintf("netsim/route/hypermesh/n%d", machineN), Setup: setupRoute("hypermesh")},
		{Name: fmt.Sprintf("fftd/http/fft/n%d", httpN), Setup: setupHTTPFFT},
		{Name: "fftd/handler/fft/n1024", Setup: setupHandlerFFT(httpN)}, // named without a Sprintf escape
		{Name: fmt.Sprintf("cluster/route/n%d", httpN), Setup: setupClusterRoute, Comm: commClusterRoute},
		{Name: fmt.Sprintf("pencil/2d/%dx%d", pencilRows, pencilCols), Setup: setupPencil, Comm: commPencil},
	}
}

// Select filters All() down to suites whose name contains any of the
// comma-separated substrings in pattern ("" selects everything).
func Select(pattern string) ([]Suite, error) {
	all := All()
	if pattern == "" {
		return all, nil
	}
	parts := strings.Split(pattern, ",")
	out := make([]Suite, 0, len(all))
	for _, s := range all {
		for _, p := range parts {
			if p != "" && strings.Contains(s.Name, p) {
				out = append(out, s)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no suite matches %q", pattern)
	}
	return out, nil
}

// ---- serial kernels ----

func setupFFTTransform() (func() error, func(), error) {
	p, err := fft.NewPlan(serialN)
	if err != nil {
		return nil, nil, err
	}
	src := randComplex(serialN, 1)
	dst := make([]complex128, serialN)
	return func() error {
		p.Transform(dst, src)
		return nil
	}, nil, nil
}

func setupBitReverse() (func() error, func(), error) {
	p, err := fft.NewPlan(serialN)
	if err != nil {
		return nil, nil, err
	}
	buf := randComplex(serialN, 2)
	return func() error {
		// The permutation is an involution, so repeated application
		// keeps the buffer well-defined.
		p.BitReverseInPlace(buf)
		return nil
	}, nil, nil
}

func setupReal() (func() error, func(), error) {
	p, err := fft.NewRealPlan(serialN)
	if err != nil {
		return nil, nil, err
	}
	src := randFloats(serialN, 4)
	return func() error {
		_ = p.Forward(src)
		return nil
	}, nil, nil
}

// setupSplitRadix measures the split-radix complex kernel at a size
// past L2 residency; fft/transform covers the flagship N = 4096.
func setupSplitRadix() (func() error, func(), error) {
	p, err := fft.NewPlan(splitRadixN)
	if err != nil {
		return nil, nil, err
	}
	src := randComplex(splitRadixN, 10)
	dst := make([]complex128, splitRadixN)
	return func() error {
		p.Transform(dst, src)
		return nil
	}, nil, nil
}

// setupAnyPlan measures the arbitrary-length (Bluestein) serving path
// at a non-power-of-two size.
func setupAnyPlan() (func() error, func(), error) {
	p, err := fft.NewAnyPlan(anyN)
	if err != nil {
		return nil, nil, err
	}
	src := randComplex(anyN, 11)
	dst := make([]complex128, anyN)
	return func() error {
		p.Transform(dst, src)
		return nil
	}, nil, nil
}

func setupDCT() (func() error, func(), error) {
	p, err := fft.NewDCTPlan(dctN)
	if err != nil {
		return nil, nil, err
	}
	src := randFloats(dctN, 5)
	dst := make([]float64, dctN)
	return func() error {
		p.Transform(dst, src)
		return nil
	}, nil, nil
}

// ---- simulated machines ----

// commParfft profiles one distributed FFT's communication on the
// simulated machine: the netsim Words counter gives the payload bytes
// one op moves, and CommRoofline relates them to the BSP lower bound
// for machineN points on machineN nodes. The count is a property of
// the schedule, not the run, so a single execution is exact.
func commParfft(topo string) func() (int64, float64, error) {
	return func() (int64, float64, error) {
		m, err := netsim.Build[complex128](topo, machineN, true, netsim.Config{Workers: 1})
		if err != nil {
			return 0, 0, err
		}
		x := randComplex(machineN, 6)
		if _, err := parfft.Run(m, x, parfft.Options{}); err != nil {
			return 0, 0, err
		}
		st := m.Stats()
		return st.CommBytes(), netsim.CommRoofline(machineN, st), nil
	}
}

func setupParfft(topo string) func() (func() error, func(), error) {
	return func() (func() error, func(), error) {
		m, err := netsim.Build[complex128](topo, machineN, true, netsim.Config{Workers: 1})
		if err != nil {
			return nil, nil, err
		}
		cache := plancache.New(8)
		x := randComplex(machineN, 6)
		runner, err := parfft.NewRunner(m, parfft.Options{Plans: cache.Source()})
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			_, err := runner.Run(x)
			return err
		}, nil, nil
	}
}

func setupPlanCacheHit() (func() error, func(), error) {
	c := plancache.New(8)
	if _, err := c.ComplexPlan(httpN); err != nil {
		return nil, nil, err
	}
	return func() error {
		_, err := c.ComplexPlan(httpN)
		return err
	}, nil, nil
}

func setupRoute(topo string) func() (func() error, func(), error) {
	return func() (func() error, func(), error) {
		m, err := netsim.Build[complex128](topo, machineN, true, netsim.Config{Workers: 1})
		if err != nil {
			return nil, nil, err
		}
		// A fixed random permutation: the adversarial case for queued
		// store-and-forward routing and the general case for the
		// hypermesh's Clos decomposition. Routing cost does not depend
		// on register values, so the permutation is reused as-is.
		p := permute.Random(machineN, rand.New(rand.NewSource(7)))
		return func() error {
			_, err := m.Route(p)
			return err
		}, nil, nil
	}
}

// ---- distributed pencil FFT ----

// buildPencil stands up the three-worker loopback pencil harness: a
// shared plan cache (as three fftd nodes would each hold hot plans),
// deterministic input, and a run configuration routing every shard
// through the real wire codec.
func buildPencil() (pencil.Config, pencil.SliceSource, pencil.SliceSink) {
	cache := plancache.New(16)
	workers := make(map[string]*pencil.Worker, 3)
	names := make([]string, 3)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
		workers[names[i]] = pencil.NewWorker(pencil.WorkerConfig{Plans: cache})
	}
	in := randComplex(pencilRows*pencilCols, 29)
	out := make([]complex128, len(in))
	cfg := pencil.Config{
		Shape:     pencil.Shape2D(pencilRows, pencilCols),
		Workers:   names,
		Transport: pencil.NewLocalTransport(true, workers),
	}
	return cfg, pencil.SliceSource{Data: in, Cols: pencilCols}, pencil.SliceSink{Data: out, Cols: pencilCols}
}

// setupPencil measures one full distributed 2D pencil FFT: row slabs,
// the deposit transpose, column bands and the gather, with every shard
// round-tripping the wire codec.
func setupPencil() (func() error, func(), error) {
	cfg, src, sink := buildPencil()
	ctx := context.Background()
	return func() error {
		_, err := pencil.Run(ctx, cfg, src, sink)
		return err
	}, nil, nil
}

// commPencil reports one run's wire traffic — whole pencil frames both
// directions — against the coordinator's analytical transpose floor
// (sample payload bytes of remote sub-operations).
func commPencil() (int64, float64, error) {
	cfg, src, sink := buildPencil()
	stats, err := pencil.Run(context.Background(), cfg, src, sink)
	if err != nil {
		return 0, 0, err
	}
	return stats.WireBytesSent + stats.WireBytesRecv, stats.RooflineRatio, nil
}

// ---- end-to-end service ----

// setupClusterRoute measures one n = httpN transform routed through a
// two-node ring over real loopback TCP: shape hashing, preference-list
// lookup, the binary wire round-trip and remote plan-cache execution.
// The client runs as the node that does not own the shape, so the suite
// tracks the forwarding path, not the local shortcut (which
// plancache/hit and fft/transform already cover).
func setupClusterRoute() (func() error, func(), error) {
	client, op, cleanup, err := buildClusterRoute()
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	return func() error {
		_, err := client.Transform(ctx, op)
		return err
	}, cleanup, nil
}

// commClusterRoute reports the forwarding path's wire traffic for one
// transform — whole request and response frames, headers included —
// against the serving-path communication floor the client accounts per
// remotely-executed op (see cluster.ClientMetrics).
func commClusterRoute() (int64, float64, error) {
	client, op, cleanup, err := buildClusterRoute()
	if err != nil {
		return 0, 0, err
	}
	defer cleanup()
	before := client.Metrics()
	if _, err := client.Transform(context.Background(), op); err != nil {
		return 0, 0, err
	}
	d := client.Metrics().Sub(before)
	bytes := d.WireBytesSent + d.WireBytesRecv
	return bytes, roofline.Ratio(float64(bytes), float64(d.CommFloorBytes)), nil
}

// buildClusterRoute stands up the two-node loopback cluster shared by
// the cluster/route suite and its comm profile: node a is local, node b
// owns the measured shape, and the returned op is pre-warmed so neither
// plan compilation nor connection setup pollutes the measurement.
func buildClusterRoute() (*cluster.Client, *wire.TransformOp, func(), error) {
	exec := func(cache *plancache.Cache) cluster.Executor {
		return func(_ context.Context, op *wire.TransformOp) ([]complex128, error) {
			p, err := cache.ComplexPlan(op.N())
			if err != nil {
				return nil, err
			}
			out := make([]complex128, op.N())
			p.Transform(out, op.Input)
			return out, nil
		}
	}
	a, err := cluster.Listen("127.0.0.1:0", cluster.NodeConfig{Exec: exec(plancache.New(8))})
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := cluster.Listen("127.0.0.1:0", cluster.NodeConfig{Exec: exec(plancache.New(8))})
	if err != nil {
		_ = a.Close()
		return nil, nil, nil, err
	}
	// Placement hashes the nodes' ephemeral addresses, but the ring
	// over {a, b} is the same whichever node is self: make a the node
	// that does not own the shape, so every op takes the wire.
	reg := cluster.NewRegistry(a.Addr(), []string{b.Addr()}, cluster.RegistryConfig{})
	if reg.Ring().Lookup(cluster.ShapeKey{N: httpN}.Hash()) == a.Addr() {
		reg.Stop()
		a, b = b, a
		reg = cluster.NewRegistry(a.Addr(), []string{b.Addr()}, cluster.RegistryConfig{})
	}
	client, err := cluster.NewClient(reg, cluster.ClientConfig{
		Self:  a.Addr(),
		Local: exec(plancache.New(8)),
	})
	if err != nil {
		_ = a.Close()
		_ = b.Close()
		return nil, nil, nil, err
	}
	cleanup := func() {
		client.Close()
		_ = a.Close()
		_ = b.Close()
	}

	op := wire.TransformOp{Input: randComplex(httpN, 9)}
	// Warm the remote plan cache and the connection pool outside the
	// measurement.
	if _, err := client.Transform(context.Background(), &op); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	return client, &op, cleanup, nil
}

// fftBody is a /v1/fft request for one transform of n random samples.
func fftBody(n int) ([]byte, error) {
	input := make([]server.Complex, n)
	rng := rand.New(rand.NewSource(8))
	for i := range input {
		input[i] = server.Complex{rng.NormFloat64(), rng.NormFloat64()}
	}
	return json.Marshal(server.FFTRequest{TransformSpec: server.TransformSpec{Input: input}})
}

func setupHTTPFFT() (func() error, func(), error) {
	body, err := fftBody(httpN)
	if err != nil {
		return nil, nil, err
	}
	srv := server.New(server.Config{Workers: 2, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	cleanup := func() {
		ts.Close()
		srv.Close()
	}
	client := ts.Client()
	url := ts.URL + "/v1/fft"
	return func() error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("bench: /v1/fft returned %d", resp.StatusCode)
		}
		return nil
	}, cleanup, nil
}

// setupHandlerFFT is fftd/http/fft without the socket: one n-sample
// request through Handler().ServeHTTP into a discarding ResponseWriter,
// so it prices the codec, middleware and worker pool, and at n = httpN
// the difference between the two suites is the HTTP transport's.
func setupHandlerFFT(n int) func() (func() error, func(), error) {
	return func() (func() error, func(), error) {
		body, err := fftBody(n)
		if err != nil {
			return nil, nil, err
		}
		srv := server.New(server.Config{Workers: 2, QueueDepth: 64})
		h := srv.Handler()
		w := &discardResponse{header: http.Header{}}
		rb := new(replayBody)
		req := httptest.NewRequest(http.MethodPost, "/v1/fft", rb)
		return func() error {
			clear(w.header)
			w.status = 0
			rb.Reset(body)
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				return fmt.Errorf("bench: /v1/fft returned %d", w.status)
			}
			return nil
		}, srv.Close, nil
	}
}

// discardResponse is a ResponseWriter that keeps the status and drops
// the body.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) WriteHeader(status int) {
	if d.status == 0 {
		d.status = status
	}
}

func (d *discardResponse) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(b), nil
}

// replayBody serves one request body again and again.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }
