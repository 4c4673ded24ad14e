package pencil

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/obs/roofline"
)

// Shape is the flattened 2D view of the transform: Rows x Cols
// row-major. A 3D nx x ny x nz volume flattens to Rows = nx,
// Cols = ny*nz with PlaneRows = ny, so every "row" is one x-plane and
// the same schedule (and wire ops) serves both ranks; PlaneRows is 0
// for plain 2D.
type Shape struct {
	Rows      int
	Cols      int
	PlaneRows int
}

// Shape2D describes a rows x cols transform.
func Shape2D(rows, cols int) Shape { return Shape{Rows: rows, Cols: cols} }

// Shape3D describes an nx x ny x nz transform.
func Shape3D(nx, ny, nz int) Shape { return Shape{Rows: nx, Cols: ny * nz, PlaneRows: ny} }

// Dims returns 2 or 3.
func (s Shape) Dims() int {
	if s.PlaneRows > 0 {
		return 3
	}
	return 2
}

// Total returns the sample count.
func (s Shape) Total() int { return s.Rows * s.Cols }

func (s Shape) validate() error {
	if s.Rows < 1 || s.Cols < 1 {
		return fmt.Errorf("pencil: shape %dx%d has a side < 1", s.Rows, s.Cols)
	}
	if s.PlaneRows > 0 && s.Cols%s.PlaneRows != 0 {
		return fmt.Errorf("pencil: plane rows %d does not divide cols %d", s.PlaneRows, s.Cols)
	}
	return nil
}

// Source streams the input: ReadRows fills dst (n*Cols samples) with
// row-major rows [rowLo, rowLo+n). A run calls it from one goroutine,
// one row at a time in row order within each wave. Out-of-core runs
// call it more than once per row — a Source must be re-readable.
type Source interface {
	ReadRows(rowLo, n int, dst []complex128) error
}

// Sink receives the output: WriteBand stores the nrows x ncols
// row-major shard covering rows [rowLo, rowLo+nrows) of columns
// [colLo, colLo+ncols). data is valid only for the duration of the
// call: the coordinator reads the next shard into the same memory, so a
// Sink must copy what it keeps. The bands of a wave are gathered at
// once, but the coordinator serializes their WriteBand calls, so a Sink
// need not be safe for concurrent use; the calls of different bands
// interleave in no fixed order. The coordinator never writes the same
// cell twice within one attempt, and never interleaves partial new data
// into a cell: writes for a wave start only after every column FFT of
// the wave succeeded, and a run re-planned after a peer capacity
// rejection (Stats.CapRetries) rewrites cells from the abandoned
// attempt with identical values.
type Sink interface {
	WriteBand(rowLo, nrows, colLo, ncols int, data []complex128) error
}

// SliceSource serves rows out of a full in-memory row-major array.
type SliceSource struct {
	Data []complex128
	Cols int
}

// ReadRows implements Source.
func (s SliceSource) ReadRows(rowLo, n int, dst []complex128) error {
	lo, hi := rowLo*s.Cols, (rowLo+n)*s.Cols
	if lo < 0 || hi > len(s.Data) || len(dst) != hi-lo {
		return fmt.Errorf("pencil: source rows [%d,%d) out of range", rowLo, rowLo+n)
	}
	copy(dst, s.Data[lo:hi])
	return nil
}

// SliceSink scatters band shards into a full in-memory row-major array.
type SliceSink struct {
	Data []complex128
	Cols int
}

// WriteBand implements Sink.
func (s SliceSink) WriteBand(rowLo, nrows, colLo, ncols int, data []complex128) error {
	if len(data) != nrows*ncols || colLo < 0 || colLo+ncols > s.Cols ||
		rowLo < 0 || (rowLo+nrows)*s.Cols > len(s.Data) {
		return fmt.Errorf("pencil: sink band [%d,%d)x[%d,%d) out of range", rowLo, rowLo+nrows, colLo, colLo+ncols)
	}
	for r := 0; r < nrows; r++ {
		copy(s.Data[(rowLo+r)*s.Cols+colLo:], data[r*ncols:(r+1)*ncols])
	}
	return nil
}

// Transport delivers one pencil sub-operation to a peer and fills resp
// with its answer, returning the wire bytes it moved each direction —
// whole frames, headers included; zero for calls served in-process.
// A FlagError response surfaces as a non-nil error.
type Transport interface {
	Call(ctx context.Context, peer string, req, resp *wire.PencilOp) (sent, recv int64, err error)
}

// Config parameterizes one distributed run.
type Config struct {
	Shape   Shape
	Inverse bool
	// Workers are the transport addresses sharing the run, in schedule
	// order; at least one.
	Workers []string
	// Transport delivers the sub-operations.
	Transport Transport
	// MemCap bounds per-node band memory and the coordinator's own
	// streaming buffers: its one-row buffer and its band staging each
	// stay within half the cap, and gather reads decode into the staging.
	// 0 means DefaultMemCap. Datasets larger than the cap run out of core
	// (see package comment).
	MemCap int64
	// Metrics, when non-nil, accumulates run counters.
	Metrics *Metrics
}

// Stats describes one completed run.
type Stats struct {
	Workers        int     `json:"workers"`
	Bands          int     `json:"bands"`
	Waves          int     `json:"waves"`
	BandCols       int     `json:"band_cols"`
	RPCs           int64   `json:"rpcs"`
	WireBytesSent  int64   `json:"wire_bytes_sent"`
	WireBytesRecv  int64   `json:"wire_bytes_recv"`
	CommFloorBytes int64   `json:"comm_floor_bytes"`
	RooflineRatio  float64 `json:"roofline_ratio"`
	// CapRetries counts re-plans with narrower column bands after a
	// worker rejected an open on its memory cap (a peer configured with
	// a smaller cap than this coordinator's).
	CapRetries int `json:"cap_retries,omitempty"`
}

// jobSeq mints job IDs. Workers key band state by job ID alone, so IDs
// must be unique across every coordinator that might share a worker,
// not just within one process: every node serves /v1/fft2d, and two
// nodes coordinating concurrently with aligned counters (e.g. after a
// restart) would collide on "job already open". The sequence therefore
// starts at a per-process random offset instead of 0.
var jobSeq atomic.Uint64

func init() { jobSeq.Store(rand.Uint64()) }

// run carries one run's schedule and accounting.
type run struct {
	cfg      Config
	rows     int
	cols     int
	bandCols int
	bands    int
	waves    int

	rowPlan rowPlan
	row     []complex128 // the row stage's one-row buffer
	stage   []complex128 // deposit and gather staging for every band of a wave
	// slots[i] carries band i's calls in every stage of a wave, so one
	// goroutine owns each at a time. Read answers decode into stage, so
	// the slots hold no buffers of their own.
	slots []slot

	mu    sync.Mutex // guards stats: band stages call from many goroutines
	stats Stats
}

// Run executes one distributed pencil FFT: src streams in row-major,
// the transformed array streams out through sink. On error every
// reachable band of the failed wave has been closed, and that wave has
// written to sink only if its failure came after every column FFT
// succeeded (see execute).
func Run(ctx context.Context, cfg Config, src Source, sink Sink) (Stats, error) {
	if err := cfg.Shape.validate(); err != nil {
		return Stats{}, err
	}
	if len(cfg.Workers) == 0 {
		return Stats{}, errors.New("pencil: no workers")
	}
	if cfg.Transport == nil {
		return Stats{}, errors.New("pencil: no transport")
	}
	if cfg.MemCap <= 0 {
		cfg.MemCap = DefaultMemCap
	}
	// The row plan is resolved once per run, with the constructors the
	// workers' plan caches use.
	rp, err := newRowPlan(freshPlans{}, cfg.Shape)
	if err != nil {
		return Stats{}, err
	}
	r, err := plan(cfg, rp, 0)
	if err != nil {
		return Stats{}, err
	}
	if cfg.Metrics != nil {
		if cfg.Shape.Dims() == 3 {
			cfg.Metrics.runs3D.Add(1)
		} else {
			cfg.Metrics.runs2D.Add(1)
		}
	}
	// plan sizes column bands against this coordinator's own cap, but a
	// peer started with a smaller cap rejects the open. Those
	// rejections are curable: re-plan with bands narrowed to half and
	// re-run until they fit the smallest peer or cannot narrow further.
	// A retried attempt rewrites sink cells from the abandoned one with
	// identical values (same plans, same per-element order), so the
	// retry is invisible in the output.
	retries := 0
	for {
		r.stats.CapRetries = retries
		err := r.runOnce(ctx, src, sink)
		if err == nil {
			return r.stats, nil
		}
		if IsBandCapMsg(err.Error()) && r.bandCols > 1 {
			if nr, perr := plan(cfg, rp, r.bandCols/2); perr == nil {
				r = nr
				retries++
				if cfg.Metrics != nil {
					cfg.Metrics.capRetries.Add(1)
				}
				continue
			}
		}
		if cfg.Metrics != nil {
			cfg.Metrics.errors.Add(1)
		}
		return Stats{}, err
	}
}

// runOnce executes one planned attempt end to end, filling r.stats.
func (r *run) runOnce(ctx context.Context, src Source, sink Sink) error {
	sp := obs.StartChild(ctx, "pencil.run").SetCat(obs.CatCluster).
		SetDetail(fmt.Sprintf("shape=%dx%d dims=%d workers=%d bands=%d waves=%d retries=%d",
			r.rows, r.cols, r.cfg.Shape.Dims(), len(r.cfg.Workers), r.bands, r.waves, r.stats.CapRetries))
	defer sp.End()
	ctx = obs.WithSpan(ctx, sp)
	if err := r.execute(ctx, src, sink); err != nil {
		sp.SetDetail("error: " + err.Error())
		return err
	}
	r.stats.Workers = len(r.cfg.Workers)
	r.stats.Bands = r.bands
	r.stats.Waves = r.waves
	r.stats.BandCols = r.bandCols
	r.stats.RooflineRatio = roofline.Ratio(
		float64(r.stats.WireBytesSent+r.stats.WireBytesRecv),
		float64(r.stats.CommFloorBytes))
	return nil
}

// fitRows returns how many rows of width w fit both the coordinator's
// streaming budget — half the memory cap — and one wire frame. Every
// transfer the coordinator makes is sized by it: deposits and gather
// reads, which share one staging buffer (w = a wave's summed band
// widths). With w = cols it checks that the row buffer fits.
func fitRows(memCap int64, w int) int {
	n := memCap / 16 / 2 / int64(w)
	if frame := int64((wire.MaxPayload - wire.PencilHdrSize) / (16 * w)); n > frame {
		n = frame
	}
	return int(n)
}

// plan sizes the schedule against the memory cap and the wire's
// payload bound. maxBandCols, when positive, narrows the column bands
// below what the cap allows — the cap-rejection retry path.
func plan(cfg Config, rp rowPlan, maxBandCols int) (*run, error) {
	rows, cols := cfg.Shape.Rows, cfg.Shape.Cols
	p := len(cfg.Workers)
	cap16 := cfg.MemCap / 16 // cap in complex128 samples

	// A worker band is rows x bandCols plus rows of column scratch:
	// 16*rows*(bandCols+1) bytes, bounded by the cap. Never wider than
	// the even split across workers.
	bandCols := int(cap16/int64(rows) - 1)
	if evenSplit := (cols + p - 1) / p; bandCols > evenSplit {
		bandCols = evenSplit
	}
	if maxBandCols > 0 && bandCols > maxBandCols {
		bandCols = maxBandCols
	}
	if bandCols < 1 {
		return nil, fmt.Errorf("pencil: cap %d cannot hold one %d-row column band", cfg.MemCap, rows)
	}

	// The row stage holds one full row at a time (a 3D "row" is a whole
	// x-plane) within half the cap; the staging takes the other half.
	if fitRows(cfg.MemCap, cols) < 1 {
		return nil, fmt.Errorf("pencil: cap %d cannot stream one %d-sample row", cfg.MemCap, cols)
	}

	bands := (cols + bandCols - 1) / bandCols
	waves := (bands + p - 1) / p
	return &run{
		cfg:      cfg,
		rows:     rows,
		cols:     cols,
		bandCols: bandCols,
		bands:    bands,
		waves:    waves,
		rowPlan:  rp,
		row:      make([]complex128, cols),
		slots:    make([]slot, min(p, bands)),
	}, nil
}

// slot is one goroutine's reusable request and answer.
type slot struct{ req, resp wire.PencilOp }

// band is one column band of a wave.
type band struct {
	job   uint64
	owner string
	colLo int
	colN  int
	stage []complex128 // this band's staging rows, colN wide
}

// call sends s.req and fills s.resp, threading the byte accounting
// into the run's span tree, stats and metrics at the same points with
// the same values, so span rollups reconcile exactly with the metrics
// deltas.
// The communication floor accrues the shard samples actually moved over
// the wire (sent or received on a remote call) — the bytes the
// transpose must cross the bisection with; headers and sub-headers are
// overhead above the floor, which keeps achieved/floor >= 1.
func (r *run) call(ctx context.Context, stage, peer string, s *slot) error {
	req, resp := &s.req, &s.resp
	// An error answer leaves resp as it was: start it empty, so neither
	// the floor nor the caller counts the previous call's samples.
	resp.Data = resp.Data[:0]
	sp := obs.StartChild(ctx, "pencil.rpc").SetCat(obs.CatCluster).
		SetDetail(stage + " " + peer)
	sent, recv, err := r.cfg.Transport.Call(ctx, peer, req, resp)
	sp.AddBytes(sent, recv)
	sp.End()
	var floor int64
	if sent > 0 {
		floor += 16 * int64(len(req.Data))
	}
	if recv > 0 {
		floor += 16 * int64(len(resp.Data))
	}
	r.mu.Lock()
	r.stats.RPCs++
	r.stats.WireBytesSent += sent
	r.stats.WireBytesRecv += recv
	r.stats.CommFloorBytes += floor
	r.mu.Unlock()
	r.cfg.Metrics.countRPC(req.Sub)
	r.cfg.Metrics.addWire(sent, recv, floor)
	if err != nil {
		return fmt.Errorf("pencil: %s on %s: %w", stage, peer, err)
	}
	return nil
}

// header builds the common sub-header for this run.
func (r *run) header(sub uint8) wire.PencilOp {
	op := wire.PencilOp{
		Sub:     sub,
		Dims:    uint8(r.cfg.Shape.Dims()),
		Rows:    uint32(r.rows),
		Cols:    uint32(r.cols),
		Inverse: r.cfg.Inverse,
	}
	if r.cfg.Shape.PlaneRows > 0 {
		op.PlaneRows = uint32(r.cfg.Shape.PlaneRows)
	}
	return op
}

// bandOp builds a sub-operation addressed to band b's job.
func (r *run) bandOp(sub uint8, b *band) wire.PencilOp {
	op := r.header(sub)
	op.Job = b.job
	op.ColLo = uint32(b.colLo)
	op.ColN = uint32(b.colN)
	return op
}

// fanOut runs f(ctx, i) for every i in [0, n) at once and waits for all
// of them. It returns the first error in time and cancels the others'
// context when it happens; the canceled siblings' own errors are
// dropped. Order in time is the only sound pick: a sibling's
// cancellation may come back from a remote peer as plain text, not as
// context.Canceled, so it cannot be told apart from a real failure.
func fanOut(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	switch n {
	case 0:
		return nil
	case 1:
		return f(ctx, 0)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if err := f(ctx, i); err != nil {
				fail(err)
			}
		}(i)
	}
	if err := f(ctx, 0); err != nil {
		fail(err)
	}
	wg.Wait()
	return first
}

// execute runs the waves. Within each wave: open the wave's bands,
// row-transform the source and deposit each band's columns of it with
// the band's owner (the distributed transpose), run the column FFTs,
// gather the bands into the sink, close. Every remote stage runs on all
// of the wave's band owners at once. The gather for a wave
// starts only after every column FFT of that wave succeeded, so a
// failure before then leaves the sink untouched by that wave; earlier
// waves cover disjoint columns and were complete. A failed run
// therefore never interleaves partial new data into cells a retry would
// also write.
func (r *run) execute(ctx context.Context, src Source, sink Sink) error {
	for wave := 0; wave < r.waves; wave++ {
		if r.cfg.Metrics != nil {
			r.cfg.Metrics.waves.Add(1)
		}
		bands := r.waveBands(wave)
		if err := r.wave(ctx, bands, src, sink); err != nil {
			r.abandon(bands)
			return err
		}
	}
	return nil
}

// waveBands lays out one wave's column bands, one per worker in
// schedule order, each under a fresh job ID.
func (r *run) waveBands(wave int) []band {
	p := len(r.cfg.Workers)
	bands := make([]band, 0, p)
	for k := 0; k < p; k++ {
		colLo := (wave*p + k) * r.bandCols
		if colLo >= r.cols {
			break
		}
		bands = append(bands, band{
			job:   jobSeq.Add(1),
			owner: r.cfg.Workers[k],
			colLo: colLo,
			colN:  min(r.cols-colLo, r.bandCols),
		})
	}
	return bands
}

// stageBands splits the staging among a wave's bands: h rows of every
// band side by side, with h sized by the bands' summed width so that
// all of it stays within half the cap. The scatter stages deposits in
// it and the gather reads into it. It returns h.
func (r *run) stageBands(bands []band) int {
	width := 0
	for _, b := range bands {
		width += b.colN
	}
	h := min(fitRows(r.cfg.MemCap, width), r.rows)
	if need := h * width; cap(r.stage) < need {
		r.stage = make([]complex128, need)
	}
	off := 0
	for i := range bands {
		end := off + h*bands[i].colN
		bands[i].stage = r.stage[off:end:end]
		off = end
	}
	return h
}

// wave runs one wave's stages.
func (r *run) wave(ctx context.Context, bands []band, src Source, sink Sink) error {
	n := len(bands)
	// Each open runs to its answer on the wave's context, even when a
	// sibling's fails: a canceled open could still reach its peer after
	// abandon's close and hold the band there until its TTL.
	if err := fanOut(ctx, n, func(_ context.Context, i int) error {
		r.slots[i].req = r.bandOp(wire.PencilOpen, &bands[i])
		return r.call(ctx, "open", bands[i].owner, &r.slots[i])
	}); err != nil {
		return err
	}
	h := r.stageBands(bands)
	if err := r.scatter(ctx, bands, h, src); err != nil {
		return err
	}
	if err := fanOut(ctx, n, func(ctx context.Context, i int) error {
		r.slots[i].req = r.bandOp(wire.PencilColFFT, &bands[i])
		return r.call(ctx, "colfft", bands[i].owner, &r.slots[i])
	}); err != nil {
		return err
	}
	// Gather: every band reads h rows at a time into its own staging, so
	// the wave's reads in flight together stay within half the cap. Sink
	// writes are serialized, so a Sink need not be safe for concurrent
	// use. sinkMu is held across WriteBand, but only this stage's
	// goroutines ever take it.
	var sinkMu sync.Mutex
	if err := fanOut(ctx, n, func(ctx context.Context, i int) error {
		b, s := &bands[i], &r.slots[i]
		for lo := 0; lo < r.rows; lo += h {
			cn := min(r.rows-lo, h)
			s.req = r.bandOp(wire.PencilRead, b)
			s.req.RowLo = uint32(lo)
			s.req.RowN = uint32(cn)
			s.resp.Data = b.stage[:0]
			if err := r.call(ctx, "read", b.owner, s); err != nil {
				return err
			}
			if len(s.resp.Data) != cn*b.colN {
				return fmt.Errorf("pencil: read on %s returned %d samples, want %d", b.owner, len(s.resp.Data), cn*b.colN)
			}
			sinkMu.Lock()
			err := sink.WriteBand(lo, cn, b.colLo, b.colN, s.resp.Data)
			sinkMu.Unlock()
			if err != nil {
				return fmt.Errorf("pencil: sink band [%d,%d)x[%d,%d): %w", lo, lo+cn, b.colLo, b.colLo+b.colN, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return fanOut(ctx, n, func(ctx context.Context, i int) error {
		r.slots[i].req = r.header(wire.PencilClose)
		r.slots[i].req.Job = bands[i].job
		return r.call(ctx, "close", bands[i].owner, &r.slots[i])
	})
}

// scatter is the row stage and the distributed transpose. It streams
// the source one row at a time: it reads the row, transforms it in
// place, and copies each band's columns of it into that band's staging.
// When the staging holds h rows, and after the last row, it deposits
// every band's staged rows with all band owners at once; that fan-out
// is the transpose.
func (r *run) scatter(ctx context.Context, bands []band, h int, src Source) error {
	stageLo, staged := 0, 0 // first row and height of the staged block
	flush := func() error {
		err := fanOut(ctx, len(bands), func(ctx context.Context, i int) error {
			b, s := &bands[i], &r.slots[i]
			s.req = r.bandOp(wire.PencilDeposit, b)
			s.req.RowLo = uint32(stageLo)
			s.req.RowN = uint32(staged)
			s.req.Data = b.stage[:staged*b.colN]
			return r.call(ctx, "deposit", b.owner, s)
		})
		stageLo += staged
		staged = 0
		return err
	}
	for row := 0; row < r.rows; row++ {
		if err := src.ReadRows(row, 1, r.row); err != nil {
			return fmt.Errorf("pencil: source row %d: %w", row, err)
		}
		r.rowPlan.transform(r.row, r.cfg.Inverse)
		for i := range bands {
			b := &bands[i]
			copy(b.stage[staged*b.colN:(staged+1)*b.colN], r.row[b.colLo:])
		}
		if staged++; staged == h || row == r.rows-1 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// abandon best-effort-closes every band of a failed wave, on all their
// owners at once, so worker memory frees now instead of at TTL expiry.
// That includes bands whose open failed or went unanswered: a canceled
// open may still have reached its peer, and closing a band that was
// never opened only draws a "not open" answer, ignored like every other
// error here. An open the caller canceled while it was in flight can
// still land after its close; the worker remembers the close and refuses
// it. It runs on a detached short deadline: the original context may
// already be canceled, and a worker that died ignores us either way.
func (r *run) abandon(bands []band) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = fanOut(ctx, len(bands), func(ctx context.Context, i int) error {
		r.slots[i].req = r.header(wire.PencilClose)
		r.slots[i].req.Job = bands[i].job
		// Ignore errors: TTL expiry is the backstop, and one failed
		// close must not cancel the others.
		_ = r.call(ctx, "close", bands[i].owner, &r.slots[i])
		return nil
	})
}
