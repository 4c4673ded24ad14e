package pencil

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/fft"
	"repro/internal/obs"
	"repro/internal/plancache"
)

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// harness builds p in-process workers behind a loopback transport.
func harness(t *testing.T, p int, memCap int64) (Config, map[string]*Worker) {
	t.Helper()
	cache := plancache.New(64)
	workers := make(map[string]*Worker, p)
	names := make([]string, p)
	for i := 0; i < p; i++ {
		names[i] = fmt.Sprintf("w%d", i)
		workers[names[i]] = NewWorker(WorkerConfig{MemCap: memCap, Plans: cache})
	}
	return Config{
		Workers:   names,
		Transport: NewLocalTransport(true, workers),
		MemCap:    memCap,
	}, workers
}

func runShape(t *testing.T, cfg Config, shape Shape, inverse bool, input []complex128) ([]complex128, Stats) {
	t.Helper()
	cfg.Shape = shape
	cfg.Inverse = inverse
	out := make([]complex128, shape.Total())
	stats, err := Run(context.Background(), cfg,
		SliceSource{Data: input, Cols: shape.Cols},
		SliceSink{Data: out, Cols: shape.Cols})
	if err != nil {
		t.Fatalf("Run(%dx%d): %v", shape.Rows, shape.Cols, err)
	}
	return out, stats
}

// runWithin runs Run and fails the test unless it returns within 30s.
func runWithin(t *testing.T, ctx context.Context, cfg Config, src Source, sink Sink) (Stats, error) {
	t.Helper()
	type result struct {
		stats Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		st, err := Run(ctx, cfg, src, sink)
		done <- result{st, err}
	}()
	select {
	case res := <-done:
		return res.stats, res.err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return within 30s")
		return Stats{}, nil
	}
}

func TestRunMatchesPlan2DBitIdentical(t *testing.T) {
	// Three shapes per the acceptance criteria: square power-of-two,
	// non-square, and non-power-of-two sides — all on 3 workers.
	shapes := [][2]int{{16, 16}, {8, 32}, {12, 20}}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		cfg, _ := harness(t, 3, 0)
		x := randComplex(rows*cols, int64(rows*1000+cols))
		got, stats := runShape(t, cfg, Shape2D(rows, cols), false, x)
		p, err := fft.NewPlan2D(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(x))
		p.Transform(want, x)
		for i := range got {
			//fftlint:ignore floatcmp the acceptance criterion is bit-identical distributed vs single-node output
			if got[i] != want[i] {
				t.Fatalf("%dx%d: distributed output differs from Plan2D at %d: %v vs %v", rows, cols, i, got[i], want[i])
			}
		}
		if stats.Workers != 3 || stats.RPCs == 0 {
			t.Fatalf("stats %+v", stats)
		}

		// And the inverse direction round-trips through the same path.
		back, _ := runShape(t, cfg, Shape2D(rows, cols), true, got)
		winv := make([]complex128, len(x))
		p.Inverse(winv, got)
		for i := range back {
			//fftlint:ignore floatcmp inverse must match Plan2D.Inverse bit for bit
			if back[i] != winv[i] {
				t.Fatalf("%dx%d: distributed inverse differs at %d", rows, cols, i)
			}
		}
	}
}

func TestRun3DMatchesPlan3D(t *testing.T) {
	nx, ny, nz := 4, 6, 8
	cfg, _ := harness(t, 2, 0)
	x := randComplex(nx*ny*nz, 77)
	got, _ := runShape(t, cfg, Shape3D(nx, ny, nz), false, x)
	p, err := fft.NewPlan3D(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(x))
	p.Transform(want, x)
	for i := range got {
		//fftlint:ignore floatcmp distributed 3D must match Plan3D bit for bit
		if got[i] != want[i] {
			t.Fatalf("3D distributed output differs from Plan3D at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestRunOutOfCore(t *testing.T) {
	// 64x64 complex = 64 KiB total, but each node may hold only 16 KiB
	// of band + scratch: the run must split into multiple waves and
	// still match Plan2D, with every worker's peak under the cap.
	rows, cols := 64, 64
	memCap := int64(16) << 10
	cfg, workers := harness(t, 2, memCap)
	x := randComplex(rows*cols, 5)
	got, stats := runShape(t, cfg, Shape2D(rows, cols), false, x)
	if stats.Waves < 2 {
		t.Fatalf("dataset 4x the cap ran in %d wave(s); want out-of-core waves", stats.Waves)
	}
	p, err := fft.NewPlan2D(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(x))
	p.Transform(want, x)
	for i := range got {
		//fftlint:ignore floatcmp out-of-core output must still be bit-identical
		if got[i] != want[i] {
			t.Fatalf("out-of-core output differs at %d", i)
		}
	}
	for name, w := range workers {
		st := w.Stats()
		if st.BytesPeak > memCap {
			t.Fatalf("worker %s peak %d exceeds cap %d", name, st.BytesPeak, memCap)
		}
		if st.BytesPeak == 0 {
			t.Fatalf("worker %s never held a band", name)
		}
		if st.OpenJobs != 0 || st.BytesInUse != 0 {
			t.Fatalf("worker %s leaked %d jobs / %d bytes", name, st.OpenJobs, st.BytesInUse)
		}
	}
}

func TestRunRejectsImpossibleCap(t *testing.T) {
	cfg, _ := harness(t, 2, 1<<10)
	cfg.Shape = Shape2D(1024, 1024) // one column band alone exceeds 1 KiB
	_, err := Run(context.Background(), cfg,
		SliceSource{Data: make([]complex128, 1024*1024), Cols: 1024},
		SliceSink{Data: make([]complex128, 1024*1024), Cols: 1024})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v, want cap-sizing error", err)
	}
}

// killTransport fails every call to a given peer once armed, and arms
// itself once a fixed number of deposits have completed — the
// mid-transpose node kill. Counting completed deposits rather than
// issued ones keeps the kill after band state has landed even when a
// stage's deposits run at once.
type killTransport struct {
	inner     Transport
	peer      string
	killAfter int

	mu       sync.Mutex
	deposits int // completed deposits
	dead     bool
	refused  int // calls refused by the dead peer
	landedAt int // completed deposits when the first call was refused
}

func (k *killTransport) Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (int64, int64, error) {
	k.mu.Lock()
	if k.dead && peer == k.peer {
		if k.refused == 0 {
			k.landedAt = k.deposits
		}
		k.refused++
		k.mu.Unlock()
		return 0, 0, fmt.Errorf("connection refused (node %s down)", peer)
	}
	k.mu.Unlock()
	sent, recv, err := k.inner.Call(ctx, peer, req, resp)
	if err == nil && req.Sub == wire.PencilDeposit {
		k.mu.Lock()
		k.deposits++
		if k.deposits >= k.killAfter {
			k.dead = true
		}
		k.mu.Unlock()
	}
	return sent, recv, err
}

// countingSink fails the test if any write lands.
type countingSink struct {
	t      *testing.T
	writes int
}

func (c *countingSink) WriteBand(rowLo, nrows, colLo, ncols int, data []complex128) error {
	c.writes++
	return nil
}

// waitGoroutines fails the test unless the goroutine count falls back
// to at most want before the deadline: a run that returned must not
// leave stage goroutines behind.
func waitGoroutines(t *testing.T, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %v after the run returned; want <= %d", n, within, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunNodeKillMidTranspose(t *testing.T) {
	cfg, _ := harness(t, 3, 0)
	kt := &killTransport{inner: cfg.Transport, peer: "w1", killAfter: 2}
	cfg.Transport = kt
	cfg.Shape = Shape2D(16, 16)
	sink := &countingSink{t: t}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), cfg,
			SliceSource{Data: randComplex(256, 9), Cols: 16}, sink)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded despite a dead node")
		}
		if !strings.Contains(err.Error(), "w1") {
			t.Fatalf("error does not name the dead peer: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after node kill")
	}
	if sink.writes != 0 {
		t.Fatalf("sink saw %d writes from a failed run; want 0", sink.writes)
	}
	kt.mu.Lock()
	refused, landedAt := kt.refused, kt.landedAt
	kt.mu.Unlock()
	if refused == 0 || landedAt < 1 {
		t.Fatalf("kill refused %d calls after %d completed deposits; want it to land after the first deposit", refused, landedAt)
	}
	waitGoroutines(t, before, 10*time.Second)
}

// recordingTransport counts calls by sub-op, checks every frame against
// the coordinator's streaming budget and tracks the deposit and read
// bytes in flight at once: the samples deposits carry out and reads
// bring back.
type recordingTransport struct {
	inner  Transport
	budget int64 // half the cap, in bytes

	mu       sync.Mutex
	oversize []string
	calls    map[uint8]int64 // by sub-op
	inFlight map[uint8]int64
	peak     map[uint8]int64
}

func (rt *recordingTransport) Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (int64, int64, error) {
	n := 16 * int64(len(req.Data))
	var moved int64
	switch req.Sub {
	case wire.PencilDeposit:
		moved = n
	case wire.PencilRead:
		moved = 16 * int64(req.RowN) * int64(req.ColN)
	}
	rt.mu.Lock()
	rt.calls[req.Sub]++
	if n > rt.budget {
		rt.oversize = append(rt.oversize, fmt.Sprintf("%s request to %s: %d B", wire.PencilSubName(req.Sub), peer, n))
	}
	rt.inFlight[req.Sub] += moved
	rt.peak[req.Sub] = max(rt.peak[req.Sub], rt.inFlight[req.Sub])
	rt.mu.Unlock()
	sent, recv, err := rt.inner.Call(ctx, peer, req, resp)
	rt.mu.Lock()
	rt.inFlight[req.Sub] -= moved
	if m := 16 * int64(len(resp.Data)); m > rt.budget {
		rt.oversize = append(rt.oversize, fmt.Sprintf("%s answer from %s: %d B", wire.PencilSubName(req.Sub), peer, m))
	}
	rt.mu.Unlock()
	return sent, recv, err
}

// TestRunOutOfCoreSchedule pins the out-of-core schedule of a 48x48
// transform on 3 workers under a 4608-byte cap: 5-column bands, 10 of
// them in 4 waves. The coordinator transforms the rows itself, so no
// rows op crosses the wire. A wave's deposits together and its gather
// reads together are sized by half the cap, so every frame carries at
// most 2304 B of samples and the run makes 140 RPCs. The result stays
// bit-identical to Plan2D, and no worker exceeds its cap.
func TestRunOutOfCoreSchedule(t *testing.T) {
	const rows, cols, memCap = 48, 48, 4608
	cfg, workers := harness(t, 3, memCap)
	rt := &recordingTransport{inner: cfg.Transport, budget: memCap / 2,
		calls: map[uint8]int64{}, inFlight: map[uint8]int64{}, peak: map[uint8]int64{}}
	cfg.Transport = rt
	m := &Metrics{}
	cfg.Metrics = m
	cfg.Shape = Shape2D(rows, cols)
	x := randComplex(rows*cols, 48)
	out := make([]complex128, len(x))
	stats, err := runWithin(t, context.Background(), cfg, SliceSource{Data: x, Cols: cols}, SliceSink{Data: out, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Waves != 4 || stats.Bands != 10 || stats.BandCols != 5 {
		t.Fatalf("schedule %+v; want 4 waves of 5-column bands, 10 bands", stats)
	}
	p, err := fft.NewPlan2D(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(x))
	p.Transform(want, x)
	for i := range out {
		//fftlint:ignore floatcmp the batched schedule must stay bit-identical to Plan2D
		if out[i] != want[i] {
			t.Fatalf("output differs from Plan2D at %d: %v vs %v", i, out[i], want[i])
		}
	}
	for name, w := range workers {
		if st := w.Stats(); st.BytesPeak > memCap || st.OpenJobs != 0 || st.BytesInUse != 0 {
			t.Fatalf("worker %s: %+v; want peak <= %d and nothing left open", name, st, memCap)
		}
	}
	// A full wave stages 9 rows of its 15 columns, the last wave (one
	// 3-column band) 48 rows. Deposits and reads alike: 9 rows at a time
	// take 6 per 5-column band, 1 for the 3-column band.
	calls := [6]int64{}
	for i, sub := range []uint8{wire.PencilOpen, wire.PencilRows, wire.PencilDeposit, wire.PencilColFFT, wire.PencilRead, wire.PencilClose} {
		calls[i] = rt.calls[sub]
	}
	if want := [6]int64{10, 0, 55, 10, 55, 10}; calls != want || stats.RPCs != 140 {
		t.Fatalf("calls open/rows/deposit/colfft/read/close = %v, total %d; want %v, 140", calls, stats.RPCs, want)
	}
	snap := m.Snapshot()
	if got := [5]int64{snap.RPCsOpen, snap.RPCsDeposit, snap.RPCsColFFT, snap.RPCsRead, snap.RPCsClose}; got != [5]int64{10, 55, 10, 55, 10} {
		t.Fatalf("metrics RPCs open/deposit/colfft/read/close = %v; want [10 55 10 55 10]", got)
	}
	if len(rt.oversize) > 0 {
		t.Fatalf("frames over the %d B streaming budget: %v", rt.budget, rt.oversize)
	}
	for _, sub := range []uint8{wire.PencilDeposit, wire.PencilRead} {
		if pk := rt.peak[sub]; pk <= 0 || pk > rt.budget {
			t.Fatalf("%s bytes in flight peaked at %d; want (0, %d]", wire.PencilSubName(sub), pk, rt.budget)
		}
	}
}

// TestRunCommFloorIsTwoPasses — the coordinator holds the source and
// the sink, so every sample crosses the wire exactly twice: once out in
// a deposit and once back in a read. The floor is 2·16·rows·cols bytes
// however many waves the run takes, for 2D and 3D shapes alike.
func TestRunCommFloorIsTwoPasses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shape  Shape
		memCap int64
		ooc    bool
	}{
		{"2d one wave", Shape2D(16, 16), 0, false},
		{"2d out of core", Shape2D(48, 48), 4608, true},
		{"3d one wave", Shape3D(4, 6, 8), 0, false},
		{"3d out of core", Shape3D(16, 4, 8), 2048, true},
	} {
		cfg, _ := harness(t, 3, tc.memCap)
		cfg.Shape = tc.shape
		x := randComplex(tc.shape.Total(), 31)
		out := make([]complex128, len(x))
		stats, err := runWithin(t, context.Background(), cfg,
			SliceSource{Data: x, Cols: tc.shape.Cols}, SliceSink{Data: out, Cols: tc.shape.Cols})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (stats.Waves > 1) != tc.ooc {
			t.Fatalf("%s: ran in %d waves", tc.name, stats.Waves)
		}
		if want := int64(2 * 16 * tc.shape.Total()); stats.CommFloorBytes != want {
			t.Fatalf("%s: comm floor %d B; want %d (every sample out and back once)", tc.name, stats.CommFloorBytes, want)
		}
		want := make([]complex128, len(x))
		if tc.shape.Dims() == 3 {
			p, err := fft.NewPlan3D(tc.shape.Rows, tc.shape.PlaneRows, tc.shape.Cols/tc.shape.PlaneRows)
			if err != nil {
				t.Fatal(err)
			}
			p.Transform(want, x)
		} else {
			p, err := fft.NewPlan2D(tc.shape.Rows, tc.shape.Cols)
			if err != nil {
				t.Fatal(err)
			}
			p.Transform(want, x)
		}
		for i := range out {
			//fftlint:ignore floatcmp the coordinator's row stage must keep the run bit-identical to the single-node plan
			if out[i] != want[i] {
				t.Fatalf("%s: output differs from the single-node plan at %d: %v vs %v", tc.name, i, out[i], want[i])
			}
		}
	}
}

// TestWorkerServesRowsForOlderCoordinators — Run transforms rows on the
// coordinator, but a coordinator of an older release still sends its
// rows to the workers during a rolling upgrade. A worker must answer
// that op, through the wire codec, bit-identical to the coordinator's
// own row stage.
func TestWorkerServesRowsForOlderCoordinators(t *testing.T) {
	w := NewWorker(WorkerConfig{Plans: plancache.New(8)})
	tr := NewLocalTransport(true, map[string]*Worker{"old": w})
	for _, shape := range []Shape{Shape2D(6, 12), Shape2D(5, 16), Shape3D(4, 6, 8)} {
		for _, inverse := range []bool{false, true} {
			const rowLo, rowN = 1, 3
			x := randComplex(rowN*shape.Cols, int64(shape.Cols))
			req := wire.PencilOp{
				Sub: wire.PencilRows, Dims: uint8(shape.Dims()),
				Rows: uint32(shape.Rows), Cols: uint32(shape.Cols), PlaneRows: uint32(shape.PlaneRows),
				RowLo: rowLo, RowN: rowN, Inverse: inverse, Data: slices.Clone(x),
			}
			var resp wire.PencilOp
			sent, recv, err := tr.Call(context.Background(), "old", &req, &resp)
			if err != nil {
				t.Fatalf("%+v inverse=%v: rows op: %v", shape, inverse, err)
			}
			if sent == 0 || recv == 0 || resp.RowLo != rowLo || resp.RowN != rowN {
				t.Fatalf("%+v: answer %d/%d B, rows [%d,+%d)", shape, sent, recv, resp.RowLo, resp.RowN)
			}
			rp, err := newRowPlan(freshPlans{}, shape)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(x)
			rp.transform(want, inverse)
			if len(resp.Data) != len(want) {
				t.Fatalf("%+v: worker returned %d samples, want %d", shape, len(resp.Data), len(want))
			}
			for i := range want {
				//fftlint:ignore floatcmp a worker's row answer must match the coordinator's row stage bit for bit
				if resp.Data[i] != want[i] {
					t.Fatalf("%+v inverse=%v: worker row output differs at %d: %v vs %v", shape, inverse, i, resp.Data[i], want[i])
				}
			}
		}
	}
	if st := w.Stats(); st.OpenJobs != 0 || st.BytesInUse != 0 {
		t.Fatalf("stateless rows op left state behind: %+v", st)
	}
}

func TestRunSpansReconcileWithMetrics(t *testing.T) {
	cfg, _ := harness(t, 2, 0)
	m := &Metrics{}
	cfg.Metrics = m
	cfg.Shape = Shape2D(8, 32)
	tr := obs.New()
	ctx := obs.WithTracer(context.Background(), tr)
	x := randComplex(8*32, 11)
	out := make([]complex128, len(x))
	stats, err := Run(ctx, cfg,
		SliceSource{Data: x, Cols: 32}, SliceSink{Data: out, Cols: 32})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	roll := obs.RollupOf(tr.Snapshot())
	if roll.BytesSent != snap.WireBytesSent || roll.BytesRecv != snap.WireBytesRecv {
		t.Fatalf("span rollup (%d, %d) does not reconcile with metrics (%d, %d)",
			roll.BytesSent, roll.BytesRecv, snap.WireBytesSent, snap.WireBytesRecv)
	}
	if stats.WireBytesSent != snap.WireBytesSent || stats.WireBytesRecv != snap.WireBytesRecv {
		t.Fatalf("stats bytes (%d, %d) vs metrics (%d, %d)",
			stats.WireBytesSent, stats.WireBytesRecv, snap.WireBytesSent, snap.WireBytesRecv)
	}
	if stats.CommFloorBytes <= 0 || stats.RooflineRatio < 1 {
		t.Fatalf("floor %d, ratio %g; want positive floor and ratio >= 1",
			stats.CommFloorBytes, stats.RooflineRatio)
	}
	if snap.RPCs() != stats.RPCs {
		t.Fatalf("metrics RPCs %d vs stats %d", snap.RPCs(), stats.RPCs)
	}
	if snap.Runs2D != 1 || snap.Errors != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// closeMissTransport sends peer's closes to a job that was never
// opened, so each draws an error answer.
type closeMissTransport struct {
	inner Transport
	peer  string
}

func (c closeMissTransport) Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (int64, int64, error) {
	if req.Sub == wire.PencilClose && peer == c.peer {
		miss := *req
		miss.Job ^= 1 << 63
		req = &miss
	}
	return c.inner.Call(ctx, peer, req, resp)
}

// TestRunErrorAnswerAddsNoFloor — an error answer carries no samples,
// so a run whose closes fail after the gather has the comm floor of a
// clean run: the samples of the read before them are not counted twice.
func TestRunErrorAnswerAddsNoFloor(t *testing.T) {
	floor := func(miss bool) int64 {
		cfg, _ := harness(t, 3, 0)
		if miss {
			cfg.Transport = closeMissTransport{inner: cfg.Transport, peer: "w1"}
		}
		m := &Metrics{}
		cfg.Metrics = m
		cfg.Shape = Shape2D(16, 16)
		x := randComplex(16*16, 3)
		_, err := runWithin(t, context.Background(), cfg,
			SliceSource{Data: x, Cols: 16}, SliceSink{Data: make([]complex128, len(x)), Cols: 16})
		if (err != nil) != miss {
			t.Fatalf("closes missing %v: Run = %v", miss, err)
		}
		return m.Snapshot().CommFloorBytes
	}
	if clean, missed := floor(false), floor(true); missed != clean {
		t.Fatalf("comm floor %d with failed closes; want the clean run's %d", missed, clean)
	}
}

func TestWorkerRejectsOverCapAndExpires(t *testing.T) {
	w := NewWorker(WorkerConfig{MemCap: 4 << 10, JobTTL: 10 * time.Millisecond})
	open := func(job uint64, rows, colN int) error {
		op := &wire.PencilOp{Sub: wire.PencilOpen, Dims: 2, Rows: uint32(rows), Cols: 64, ColN: uint32(colN), Job: job}
		var resp wire.PencilOp
		return w.ServePencil(context.Background(), op, &resp)
	}
	// 16*16*(15+1) = 4096 bytes: exactly the cap.
	if err := open(1, 16, 15); err != nil {
		t.Fatalf("open at cap: %v", err)
	}
	if err := open(2, 16, 15); err == nil {
		t.Fatal("second band accepted over cap")
	}
	st := w.Stats()
	if st.Rejected != 1 || st.BytesPeak != 4096 {
		t.Fatalf("stats %+v", st)
	}
	// After TTL the orphaned band is reclaimed by the next op's sweep.
	time.Sleep(20 * time.Millisecond)
	if err := open(3, 16, 15); err != nil {
		t.Fatalf("open after expiry: %v", err)
	}
	st = w.Stats()
	if st.ExpiredJobs != 1 || st.OpenJobs != 1 {
		t.Fatalf("stats after expiry %+v", st)
	}
}

// TestOpenRejectsOverflowShape — hostile uint32 shape fields used to
// wrap the 16*rows*(colN+1) byte estimate to 0, slip past the cap check
// and panic the make (crashing the serving conn loop). The open must
// reject instead, charging nothing.
func TestOpenRejectsOverflowShape(t *testing.T) {
	w := NewWorker(WorkerConfig{MemCap: 1 << 20})
	op := &wire.PencilOp{Sub: wire.PencilOpen, Dims: 2, Rows: 1 << 31, Cols: 1, ColN: 1<<31 - 1, Job: 7}
	var resp wire.PencilOp
	err := w.ServePencil(context.Background(), op, &resp)
	if err == nil {
		t.Fatal("overflow-sized open accepted")
	}
	if !IsBandCapMsg(err.Error()) {
		t.Fatalf("overflow rejection not classified as band-cap: %v", err)
	}
	if st := w.Stats(); st.OpenJobs != 0 || st.BytesInUse != 0 || st.Rejected != 1 {
		t.Fatalf("stats after overflow rejection: %+v", st)
	}
}

// TestBusyMsgClassification pins the message-string classification the
// serving layer and the coordinator's cap retry rely on — remote
// errors cross the wire as bare strings.
func TestBusyMsgClassification(t *testing.T) {
	cases := []struct {
		msg       string
		busy, cap bool
	}{
		{"pencil busy: 64 jobs already open", true, false},
		{"pencil busy: band needs 4096 bytes, 0 of 1024 in use", true, true},
		{"pencil busy: band 8x512 cannot fit cap 1024", true, true},
		{"pencil busy: job 9 expired or not open", true, false},
		{"pencil: shape 0x4 has a side < 1", false, false},
		{"pencil: dims 4 not 2 or 3", false, false},
		// Wrapped in coordinator and transport context, as the server sees it.
		{"pencil: open on w1: remote error from w1: pencil busy: band needs 1 bytes, 0 of 0 in use", true, true},
	}
	for _, tc := range cases {
		if got := IsBusyMsg(tc.msg); got != tc.busy {
			t.Errorf("IsBusyMsg(%q) = %v, want %v", tc.msg, got, tc.busy)
		}
		if got := IsBandCapMsg(tc.msg); got != tc.cap {
			t.Errorf("IsBandCapMsg(%q) = %v, want %v", tc.msg, got, tc.cap)
		}
	}
}

// lateTransport models a TCP peer, which acts on every frame once it is
// written: each call lands on its peer on a detached context, and a
// caller that gives up first gets ctx.Err() at once while its call
// still lands, later. A caller whose context is done by the time the
// answer is back loses the answer too. before and after, when set, run
// just ahead of and just after each landing.
type lateTransport struct {
	inner         Transport
	before, after func(peer string, req *wire.PencilOp)
	landing       sync.WaitGroup
}

func (t *lateTransport) Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (int64, int64, error) {
	// A landing may outlive the call, so it works on copies.
	in := *req
	in.Data = slices.Clone(req.Data)
	var out wire.PencilOp
	type result struct {
		sent, recv int64
		err        error
	}
	done := make(chan result, 1)
	t.landing.Add(1)
	go func() {
		defer t.landing.Done()
		if t.before != nil {
			t.before(peer, &in)
		}
		sent, recv, err := t.inner.Call(context.WithoutCancel(ctx), peer, &in, &out)
		if t.after != nil {
			t.after(peer, &in)
		}
		done <- result{sent, recv, err}
	}()
	select {
	case res := <-done:
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		data := append(resp.Data[:0], out.Data...)
		*resp = out
		resp.Data = data
		return res.sent, res.recv, res.err
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
}

// settle waits until every call has landed.
func (t *lateTransport) settle(tb testing.TB) {
	tb.Helper()
	landed := make(chan struct{})
	go func() {
		t.landing.Wait()
		close(landed)
	}()
	select {
	case <-landed:
	case <-time.After(10 * time.Second):
		tb.Fatal("calls still landing 10s after the run returned")
	}
}

// TestRunNarrowsBandsForSmallerPeerCap — the coordinator plans bands
// against its own cap, but here one worker was started with a cap that
// holds only a 2-column band (16*8*(2+1) = 384 bytes <= 400). Each
// wider open is rejected; the run must narrow bands, finish, and stay
// bit-identical to Plan2D. With three workers the other two accept
// every open, but their opens take 20ms to land, long after the small
// worker's rejection: the coordinator must wait for their answers
// before it abandons the wave, or its closes arrive first and the bands
// they miss stay open.
func TestRunNarrowsBandsForSmallerPeerCap(t *testing.T) {
	rows, cols := 8, 16
	for _, caps := range [][]int64{{400}, {DefaultMemCap, 400, DefaultMemCap}} {
		cache := plancache.New(16)
		workers := make(map[string]*Worker, len(caps))
		names := make([]string, len(caps))
		small := ""
		for i, c := range caps {
			names[i] = fmt.Sprintf("w%d", i)
			workers[names[i]] = NewWorker(WorkerConfig{MemCap: c, Plans: cache})
			if c == 400 {
				small = names[i]
			}
		}
		lt := &lateTransport{inner: NewLocalTransport(true, workers), before: func(peer string, req *wire.PencilOp) {
			if req.Sub == wire.PencilOpen && peer != small {
				time.Sleep(20 * time.Millisecond)
			}
		}}
		m := &Metrics{}
		cfg := Config{
			Shape:     Shape2D(rows, cols),
			Workers:   names,
			Transport: lt,
			MemCap:    DefaultMemCap,
			Metrics:   m,
		}
		x := randComplex(rows*cols, 21)
		out := make([]complex128, len(x))
		stats, err := runWithin(t, context.Background(), cfg,
			SliceSource{Data: x, Cols: cols}, SliceSink{Data: out, Cols: cols})
		if err != nil {
			t.Fatalf("caps %v: Run against a smaller peer cap: %v", caps, err)
		}
		if stats.CapRetries == 0 {
			t.Fatalf("caps %v: run never narrowed bands: %+v", caps, stats)
		}
		if stats.BandCols > 2 {
			t.Fatalf("caps %v: final band width %d wider than the peer cap holds", caps, stats.BandCols)
		}
		snap := m.Snapshot()
		if snap.CapRetries != int64(stats.CapRetries) || snap.Errors != 0 || snap.Runs2D != 1 {
			t.Fatalf("caps %v: metrics %+v vs stats %+v", caps, snap, stats)
		}
		p, err := fft.NewPlan2D(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(x))
		p.Transform(want, x)
		for i := range out {
			//fftlint:ignore floatcmp a cap-narrowed retry must still match Plan2D bit for bit
			if out[i] != want[i] {
				t.Fatalf("caps %v: cap-narrowed output differs at %d: %v vs %v", caps, i, out[i], want[i])
			}
		}
		lt.settle(t)
		for i, name := range names {
			st := workers[name].Stats()
			if st.OpenJobs != 0 || st.BytesInUse != 0 || (caps[i] == 400) != (st.Rejected > 0) {
				t.Fatalf("caps %v: worker %s stats after narrowed run: %+v", caps, name, st)
			}
		}
	}
}

// TestRunAbandonClosesUnansweredOpens — the caller cancels the run as
// the last open of the wave lands. Every peer has opened its band, but
// at least that last answer is lost; abandon must close every band of
// the wave, answered or not, so no worker holds the band's memory until
// its TTL.
func TestRunAbandonClosesUnansweredOpens(t *testing.T) {
	cfg, workers := harness(t, 3, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var opens atomic.Int32
	lt := &lateTransport{inner: cfg.Transport, after: func(peer string, req *wire.PencilOp) {
		if req.Sub == wire.PencilOpen && opens.Add(1) == 3 {
			cancel()
		}
	}}
	cfg.Transport = lt
	cfg.Shape = Shape2D(16, 16)
	x := randComplex(16*16, 5)
	if _, err := runWithin(t, ctx, cfg, SliceSource{Data: x, Cols: 16}, &countingSink{t: t}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v; want context.Canceled", err)
	}
	lt.settle(t)
	for name, w := range workers {
		if st := w.Stats(); st.Opens != 1 || st.OpenJobs != 0 || st.BytesInUse != 0 {
			t.Fatalf("worker %s: %+v; want its one band opened and closed again", name, st)
		}
	}
}

// TestRunAbandonLateOpenIsRefused — the caller cancels the run as w0's
// open lands, while w2's open is held back until abandon's close for
// its job has landed on w2. The open then reaches a worker that was
// already told to close the job: it must be refused, not hold its band
// until the TTL.
func TestRunAbandonLateOpenIsRefused(t *testing.T) {
	cfg, workers := harness(t, 3, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	closed := make(chan struct{})
	var closeOnce sync.Once
	var heldPastClose atomic.Bool
	lt := &lateTransport{inner: cfg.Transport,
		before: func(peer string, req *wire.PencilOp) {
			if req.Sub == wire.PencilOpen && peer == "w2" {
				select {
				case <-closed:
					heldPastClose.Store(true)
				case <-time.After(10 * time.Second):
				}
			}
		},
		after: func(peer string, req *wire.PencilOp) {
			switch {
			case req.Sub == wire.PencilOpen && peer == "w0":
				cancel()
			case req.Sub == wire.PencilClose && peer == "w2":
				closeOnce.Do(func() { close(closed) })
			}
		}}
	cfg.Transport = lt
	cfg.Shape = Shape2D(16, 16)
	x := randComplex(16*16, 5)
	if _, err := runWithin(t, ctx, cfg, SliceSource{Data: x, Cols: 16}, &countingSink{t: t}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v; want context.Canceled", err)
	}
	lt.settle(t)
	if !heldPastClose.Load() {
		t.Fatal("w2's open was not held until its close landed")
	}
	for name, w := range workers {
		if st := w.Stats(); st.OpenJobs != 0 || st.BytesInUse != 0 {
			t.Fatalf("worker %s: %+v; want no band left open", name, st)
		}
	}
	if st := workers["w2"].Stats(); st.Opens != 0 {
		t.Fatalf("w2 opened a band after its close: %+v", st)
	}
}

// TestWorkerLateOpenMemoryIsBounded — the IDs a worker remembers from
// closes of jobs that never opened are bounded by MaxJobs, the oldest
// making room, and forgotten after JobTTL.
func TestWorkerLateOpenMemoryIsBounded(t *testing.T) {
	w := NewWorker(WorkerConfig{MaxJobs: 2, JobTTL: 100 * time.Millisecond})
	serve := func(sub uint8, job uint64) error {
		op := &wire.PencilOp{Sub: sub, Dims: 2, Rows: 4, Cols: 4, ColN: 2, Job: job}
		var resp wire.PencilOp
		return w.ServePencil(context.Background(), op, &resp)
	}
	for job := uint64(1); job <= 3; job++ {
		if err := serve(wire.PencilClose, job); err == nil {
			t.Fatalf("close of never-opened job %d succeeded", job)
		}
		time.Sleep(time.Millisecond)
	}
	w.mu.Lock()
	remembered := len(w.closedEarly)
	w.mu.Unlock()
	if remembered != 2 {
		t.Fatalf("worker remembers %d early closes; want MaxJobs = 2", remembered)
	}
	if err := serve(wire.PencilOpen, 3); err == nil || IsBusyMsg(err.Error()) {
		t.Fatalf("late open of closed job 3 = %v; want a non-busy refusal", err)
	}
	if err := serve(wire.PencilOpen, 1); err != nil {
		t.Fatalf("open of job 1, evicted to make room: %v", err)
	}
	if err := serve(wire.PencilClose, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if err := serve(wire.PencilOpen, 3); err != nil {
		t.Fatalf("open of job 3 after its early close expired: %v", err)
	}
	if st := w.Stats(); st.OpenJobs != 1 || st.Opens != 2 {
		t.Fatalf("stats %+v; want jobs 1 and 3 opened, 3 still open", st)
	}
}

// TestJobSeqSeededNonZero — workers key band state by job ID alone, so
// coordinators on different nodes must mint from independent random
// offsets, not a shared zero origin.
func TestJobSeqSeededNonZero(t *testing.T) {
	if jobSeq.Load() == 0 {
		t.Fatal("jobSeq starts at 0; job IDs must start at a per-process random offset")
	}
}

func TestLocalTransportDirectMode(t *testing.T) {
	// Without loopback, calls dispatch in-process and report zero wire
	// bytes — so the comm floor stays zero too.
	cfg, _ := harness(t, 1, 0)
	cfg.Transport = NewLocalTransport(false, cfg.Transport.(*LocalTransport).Workers)
	x := randComplex(16*16, 3)
	got, stats := runShape(t, cfg, Shape2D(16, 16), false, x)
	p, _ := fft.NewPlan2D(16, 16)
	want := make([]complex128, len(x))
	p.Transform(want, x)
	for i := range got {
		//fftlint:ignore floatcmp single-worker direct mode must still match Plan2D bit for bit
		if got[i] != want[i] {
			t.Fatalf("direct-mode output differs at %d", i)
		}
	}
	if stats.WireBytesSent != 0 || stats.WireBytesRecv != 0 || stats.CommFloorBytes != 0 {
		t.Fatalf("direct mode reported wire traffic: %+v", stats)
	}
}
