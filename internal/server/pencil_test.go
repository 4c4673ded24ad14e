package server

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/fft"
)

// fft2dInput builds a row-major random input and its single-node Plan2D
// (or Plan3D) reference output.
func fft2dInput(t *testing.T, rows, cols, depth int, inverse bool, seed int64) ([]Complex, []complex128) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	total := rows * cols * max(depth, 1)
	in := make([]Complex, total)
	x := make([]complex128, total)
	for i := range in {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		in[i] = Complex{re, im}
		x[i] = complex(re, im)
	}
	want := make([]complex128, total)
	if depth > 1 {
		p, err := fft.NewPlan3D(rows, cols, depth)
		if err != nil {
			t.Fatal(err)
		}
		if inverse {
			p.Inverse(want, x)
		} else {
			p.Transform(want, x)
		}
	} else {
		p, err := fft.NewPlan2D(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		if inverse {
			p.Inverse(want, x)
		} else {
			p.Transform(want, x)
		}
	}
	return in, want
}

func checkFFT2DOutput(t *testing.T, label string, got []Complex, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d samples, want %d", label, len(got), len(want))
	}
	for i, g := range got {
		//fftlint:ignore floatcmp the acceptance criterion is bit-identical pencil vs single-node output
		if complex(g[0], g[1]) != want[i] {
			t.Fatalf("%s sample %d: got %v, want %v", label, i, g, want[i])
		}
	}
}

// TestFFT2DPencilSingleNodeMatchesPlan — /v1/fft2d on a single node
// still runs the pencil coordinator (in-process worker, no wire), and
// its output is bit-identical to Plan2D/Plan3D.
func TestFFT2DPencilSingleNodeMatchesPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	shapes := []struct{ rows, cols, depth int }{
		{16, 16, 0}, {8, 32, 0}, {12, 20, 0}, {4, 6, 8},
	}
	for _, sh := range shapes {
		for _, inverse := range []bool{false, true} {
			in, want := fft2dInput(t, sh.rows, sh.cols, sh.depth, inverse, int64(sh.rows+sh.cols))
			resp := postJSON(t, ts.URL+"/v1/fft2d", FFT2DRequest{
				Rows: sh.rows, Cols: sh.cols, Depth: sh.depth, Input: in, Inverse: inverse,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%dx%dx%d: status %d", sh.rows, sh.cols, sh.depth, resp.StatusCode)
			}
			body := decode[FFT2DResponse](t, resp)
			if body.Distributed || body.Workers != 1 {
				t.Fatalf("single-node run reported distributed=%v workers=%d", body.Distributed, body.Workers)
			}
			//fftlint:ignore floatcmp an in-process run moves no wire bytes, so the ratio is exactly zero
			if body.WireBytesSent != 0 || body.CommFloorBytes != 0 || body.CommRooflineRatio != 0 {
				t.Fatalf("in-process run reported wire traffic: %+v", body)
			}
			checkFFT2DOutput(t, "single-node", body.Output, want)
		}
	}
}

// TestFFT2DPencilClusterMatchesPlan2D — the end-to-end acceptance
// path: three fftd instances in a ring, /v1/fft2d on one front end,
// output bit-identical to single-node Plan2D for a square, a non-square
// and a non-power-of-two shape, with the transpose's wire accounting at
// or above the analytical floor.
func TestFFT2DPencilClusterMatchesPlan2D(t *testing.T) {
	sc := startServerCluster(t, 3, Config{})
	shapes := []struct{ rows, cols int }{{16, 16}, {8, 32}, {12, 20}}
	for _, sh := range shapes {
		in, want := fft2dInput(t, sh.rows, sh.cols, 0, false, int64(41*sh.rows+sh.cols))
		resp := postJSON(t, sc.https[0].URL+"/v1/fft2d", FFT2DRequest{
			Rows: sh.rows, Cols: sh.cols, Input: in,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%dx%d: status %d", sh.rows, sh.cols, resp.StatusCode)
		}
		body := decode[FFT2DResponse](t, resp)
		if !body.Distributed || body.Workers != 3 {
			t.Fatalf("%dx%d: distributed=%v workers=%d, want 3-way", sh.rows, sh.cols, body.Distributed, body.Workers)
		}
		if body.WireBytesSent == 0 || body.WireBytesRecv == 0 {
			t.Fatalf("%dx%d: no wire traffic recorded: %+v", sh.rows, sh.cols, body)
		}
		if body.CommFloorBytes <= 0 || body.CommRooflineRatio < 1 {
			t.Fatalf("%dx%d: roofline accounting: floor=%d ratio=%g", sh.rows, sh.cols, body.CommFloorBytes, body.CommRooflineRatio)
		}
		checkFFT2DOutput(t, "cluster", body.Output, want)
	}

	// The coordinator's counters surface in both metrics forms.
	snap := sc.servers[0].MetricsSnapshot()
	if snap.Pencil == nil || snap.Pencil.Runs2D != int64(len(shapes)) {
		t.Fatalf("snapshot pencil counters: %+v", snap.Pencil)
	}
	if snap.Pencil.WireBytesSent == 0 || snap.Pencil.CommFloorBytes == 0 {
		t.Fatalf("snapshot pencil wire totals empty: %+v", snap.Pencil)
	}
	req, _ := http.NewRequest(http.MethodGet, sc.https[0].URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	mresp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"fftd_pencil_transforms_total", "fftd_pencil_rpcs_total",
		"fftd_pencil_wire_bytes_total", "fftd_pencil_comm_floor_bytes_total",
		"fftd_pencil_waves_total", "fftd_pencil_errors_total",
		"fftd_pencil_roofline_ratio", "fftd_pencil_band_bytes",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("/metrics exposition missing %s", family)
		}
	}
}

// TestFFT2DPencilValidation pins the request validation errors.
func TestFFT2DPencilValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTransformLen: 1024})
	cases := []struct {
		name string
		req  FFT2DRequest
		want int
	}{
		{"zero rows", FFT2DRequest{Rows: 0, Cols: 8, Input: make([]Complex, 0)}, http.StatusBadRequest},
		{"negative depth", FFT2DRequest{Rows: 4, Cols: 4, Depth: -1, Input: make([]Complex, 16)}, http.StatusBadRequest},
		{"length mismatch", FFT2DRequest{Rows: 4, Cols: 4, Input: make([]Complex, 15)}, http.StatusBadRequest},
		{"over limit", FFT2DRequest{Rows: 64, Cols: 64, Input: make([]Complex, 4096)}, http.StatusBadRequest},
		// Sides whose product wraps int to a small in-limit length.
		{"rows wrap", FFT2DRequest{Rows: 1<<62 + 1, Cols: 4, Input: make([]Complex, 4)}, http.StatusBadRequest},
		{"depth wrap", FFT2DRequest{Rows: 2, Cols: 2, Depth: 1<<62 + 1, Input: make([]Complex, 4)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/fft2d", tc.req)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// errPencilTransport fails every pencil sub-operation with a fixed
// error, standing in for a peer's rejection.
type errPencilTransport struct{ err error }

func (e errPencilTransport) Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (int64, int64, error) {
	return 0, 0, e.err
}

// TestFFT2DRemoteErrorStatusMapping — a peer's transient capacity
// rejection (mem cap, job limit, TTL expiry) must map to 503, not 400:
// only shape validation that would fail anywhere is the caller's error.
func TestFFT2DRemoteErrorStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		msg  string
		want int
	}{
		{"job limit", "pencil busy: 64 jobs already open", http.StatusServiceUnavailable},
		{"expired job", "pencil busy: job 9 expired or not open", http.StatusServiceUnavailable},
		{"validation", "pencil: dims 4 not 2 or 3", http.StatusBadRequest},
	}
	for _, tc := range cases {
		s, ts := newTestServer(t, Config{})
		s.pencilTransport = errPencilTransport{err: &cluster.RemoteError{Peer: "w1", Msg: tc.msg}}
		in, _ := fft2dInput(t, 4, 4, 0, false, 1)
		resp := postJSON(t, ts.URL+"/v1/fft2d", FFT2DRequest{Rows: 4, Cols: 4, Input: in})
		eb := decode[errorBody](t, resp)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (%+v)", tc.name, resp.StatusCode, tc.want, eb)
		}
		if !strings.Contains(eb.Error, tc.msg) {
			t.Fatalf("%s: error body %q does not carry the peer message", tc.name, eb.Error)
		}
	}
}

// TestFFT2DClusterSkipsV1Peer — one v1-only node in the ring (an old
// binary: no pencil support, drops v2 frames) must be excluded from the
// pencil schedule instead of failing every /v1/fft2d run.
func TestFFT2DClusterSkipsV1Peer(t *testing.T) {
	var servers []*Server
	var nodes []*cluster.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		s := New(Config{})
		node, err := cluster.Listen("127.0.0.1:0", cluster.NodeConfig{
			Exec:   s.ClusterExecutor(),
			Ready:  func() bool { return !s.Draining() },
			Pencil: s.PencilWorker(),
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		nodes = append(nodes, node)
		addrs = append(addrs, node.Addr())
	}
	oldServer := New(Config{})
	oldNode, err := cluster.Listen("127.0.0.1:0", cluster.NodeConfig{
		Exec:       oldServer.ClusterExecutor(),
		Ready:      func() bool { return true },
		WireV1Only: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs = append(addrs, oldNode.Addr())

	reg := cluster.NewRegistry(addrs[0], []string{addrs[1], addrs[2]}, cluster.RegistryConfig{})
	client, err := cluster.NewClient(reg, cluster.ClientConfig{
		Self:  addrs[0],
		Local: servers[0].ClusterExecutor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	servers[0].SetCluster(client)
	ts := httptest.NewServer(servers[0].Handler())
	t.Cleanup(func() {
		ts.Close()
		client.Close()
		for _, n := range nodes {
			_ = n.Close()
		}
		_ = oldNode.Close()
		for _, s := range servers {
			s.Close()
		}
		oldServer.Close()
	})

	in, want := fft2dInput(t, 8, 16, 0, false, 13)
	resp := postJSON(t, ts.URL+"/v1/fft2d", FFT2DRequest{Rows: 8, Cols: 16, Input: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with a v1 peer in the ring; want the peer excluded and 200", resp.StatusCode)
	}
	body := decode[FFT2DResponse](t, resp)
	if !body.Distributed || body.Workers != 2 {
		t.Fatalf("schedule used %d workers (distributed=%v); want the v1 peer excluded (2)", body.Workers, body.Distributed)
	}
	checkFFT2DOutput(t, "v1-excluded cluster", body.Output, want)
}

// TestRequestBodyLimit413 — satellite regression test: /v1/fft and
// /v1/fft2d cap their request bodies at a bound derived from
// MaxTransformLen and answer 413, not an OOM or a hung decode, when a
// client streams past it.
func TestRequestBodyLimit413(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTransformLen: 64})
	limit := s.maxBodyBytes()

	// A syntactically endless JSON array comfortably past the cap.
	junk := bytes.Repeat([]byte("[0.123456789,9.87654321],"), int(limit/25)+64)
	body := append([]byte(`{"input":[`), junk...)

	for _, route := range []string{"/v1/fft", "/v1/fft2d"} {
		resp, err := testClient.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		eb := decode[errorBody](t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (%+v)", route, resp.StatusCode, eb)
		}
		if !strings.Contains(eb.Error, "exceeds") {
			t.Fatalf("%s: 413 body does not explain the limit: %+v", route, eb)
		}
	}

	// A request inside the cap still serves normally.
	in := make([]Complex, 8)
	in[1] = Complex{1, 0}
	resp := postJSON(t, ts.URL+"/v1/fft", FFTRequest{TransformSpec: TransformSpec{Input: in}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap /v1/fft: status %d", resp.StatusCode)
	}
}
