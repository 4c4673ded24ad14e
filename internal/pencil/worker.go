// Package pencil executes one large 2D or 3D FFT partitioned across
// cluster nodes — the pencil decomposition. The coordinator streams the
// source one row at a time and row-transforms it with the existing
// split-radix kernels; the row-transformed data is redistributed so each
// node owns a contiguous band of full-height columns (the distributed
// transpose — the stage the paper's bisection-bandwidth bound prices),
// each node runs the column transforms over its band, and the result
// streams back to the caller's row-major layout. Every sample crosses
// the wire once out to its band and once back.
//
// The package splits into a Worker (the per-node executor serving the
// wire sub-operations) and a coordinator (Run) that runs the row stage
// and schedules the rest over a Transport. Out-of-core operation falls
// out of the schedule: when the dataset exceeds the per-node memory cap,
// the coordinator shrinks the column bands until one band plus scratch
// fits the cap and runs the bands in waves, re-streaming the source rows
// for each wave — peak per-node memory stays under the cap at the price
// of re-reading (and re-row-transforming) the input once per wave.
//
// Single-node and distributed execution are bit-identical to fft.Plan2D
// by construction: both run the same plans (built by the same
// constructors) over the same per-element operation order, differing
// only in which machine holds each pencil.
package pencil

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/fft"
)

// Worker rejections that depend on load or elapsed time — the memory
// cap, the job limit, a TTL-reclaimed band — carry busyPrefix so they
// can be classified from the message alone: remote errors cross the
// wire as bare strings, and a transient rejection must not be reported
// to HTTP callers as their own error. bandCapNeedle marks the subset
// caused by the band memory cap specifically — the rejections a
// coordinator can cure by re-planning with narrower column bands.
const (
	busyPrefix    = "pencil busy:"
	bandCapNeedle = busyPrefix + " band"
)

// IsBusyMsg reports whether msg (a worker error, possibly wrapped in
// transport context) is a transient capacity or reclaimed-state
// rejection — retryable server-side, not a caller error.
func IsBusyMsg(msg string) bool { return strings.Contains(msg, busyPrefix) }

// IsBandCapMsg reports whether msg is a band memory-cap rejection —
// the case Run retries with narrower bands.
func IsBandCapMsg(msg string) bool { return strings.Contains(msg, bandCapNeedle) }

// PlanSource supplies the 1D and 2D plans the worker transforms with.
// *plancache.Cache satisfies it, so a node's pencil worker shares the
// serving plan cache.
type PlanSource interface {
	AnyPlan(n int) (*fft.AnyPlan, error)
	Plan2D(rows, cols int) (*fft.Plan2D, error)
}

// freshPlans is the fallback PlanSource building uncached plans.
type freshPlans struct{}

func (freshPlans) AnyPlan(n int) (*fft.AnyPlan, error)        { return fft.NewAnyPlan(n) }
func (freshPlans) Plan2D(rows, cols int) (*fft.Plan2D, error) { return fft.NewPlan2D(rows, cols) }

// rowPlan is the row stage's transform: a 1D plan over each row of a 2D
// shape, or a 2D plan over each x-plane (one flattened row) of a 3D
// shape. The coordinator and the workers both build it with
// newRowPlan, so rows transformed on either side are bit-identical.
type rowPlan struct {
	cols int
	t    interface {
		Transform(dst, src []complex128)
		Inverse(dst, src []complex128)
	}
}

// newRowPlan resolves the row plan for shape s from plans.
func newRowPlan(plans PlanSource, s Shape) (rowPlan, error) {
	rp := rowPlan{cols: s.Cols}
	var err error
	if s.PlaneRows > 0 {
		rp.t, err = plans.Plan2D(s.PlaneRows, s.Cols/s.PlaneRows)
	} else {
		rp.t, err = plans.AnyPlan(s.Cols)
	}
	return rp, err
}

// transform row-transforms data, a whole number of rows, in place.
func (p rowPlan) transform(data []complex128, inverse bool) {
	for lo := 0; lo < len(data); lo += p.cols {
		row := data[lo : lo+p.cols]
		if inverse {
			p.t.Inverse(row, row)
		} else {
			p.t.Transform(row, row)
		}
	}
}

// WorkerConfig bounds one node's pencil executor.
type WorkerConfig struct {
	// MemCap bounds the bytes of band + scratch buffers held across all
	// open jobs. 0 means DefaultMemCap.
	MemCap int64
	// MaxJobs bounds concurrently open jobs. 0 means 64.
	MaxJobs int
	// JobTTL reclaims bands whose coordinator died without closing
	// them. 0 means 2 minutes.
	JobTTL time.Duration
	// Plans supplies transform plans; nil builds fresh plans per op.
	Plans PlanSource
}

// DefaultMemCap is the per-node pencil memory cap when none is
// configured: 256 MiB of band + scratch.
const DefaultMemCap = int64(256) << 20

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MemCap <= 0 {
		c.MemCap = DefaultMemCap
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 2 * time.Minute
	}
	if c.Plans == nil {
		c.Plans = freshPlans{}
	}
	return c
}

// wjob is one open column band.
type wjob struct {
	mu      sync.Mutex
	rows    int
	colN    int
	need    int64 // bytes charged against the cap
	band    []complex128
	scratch []complex128
	expires time.Time
}

// Worker serves the pencil wire sub-operations on one node. It is safe
// for concurrent use; distinct jobs proceed independently.
type Worker struct {
	cfg WorkerConfig

	mu    sync.Mutex
	jobs  map[uint64]*wjob
	inUse int64
	peak  int64
	// closedEarly maps the IDs of jobs closed before they opened to when
	// the worker forgets them: an open that lands after its close (the
	// coordinator gave up while the open was in flight) is refused
	// instead of holding its band until JobTTL. At most MaxJobs entries;
	// nil until the first such close.
	closedEarly map[uint64]time.Time

	opens, expired, rejected int64 // guarded by mu
}

// NewWorker creates a pencil executor with cfg's bounds.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{cfg: cfg, jobs: make(map[uint64]*wjob)}
}

// WorkerStats is a snapshot of one worker's job and memory state.
type WorkerStats struct {
	OpenJobs    int   `json:"open_jobs"`
	BytesInUse  int64 `json:"bytes_in_use"`
	BytesPeak   int64 `json:"bytes_peak"`
	MemCap      int64 `json:"mem_cap"`
	Opens       int64 `json:"opens"`
	ExpiredJobs int64 `json:"expired_jobs"`
	Rejected    int64 `json:"rejected"`
}

// Stats snapshots the worker.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStats{
		OpenJobs:    len(w.jobs),
		BytesInUse:  w.inUse,
		BytesPeak:   w.peak,
		MemCap:      w.cfg.MemCap,
		Opens:       w.opens,
		ExpiredJobs: w.expired,
		Rejected:    w.rejected,
	}
}

// sweepLocked drops expired jobs and early-close records. Called with
// w.mu held on every stateful op, so an orphaned band cannot outlive its
// TTL by more than one op's arrival — no background goroutine needed.
func (w *Worker) sweepLocked(now time.Time) {
	for id, j := range w.jobs {
		if now.After(j.expires) {
			delete(w.jobs, id)
			w.inUse -= j.need
			w.expired++
		}
	}
	for id, exp := range w.closedEarly {
		if now.After(exp) {
			delete(w.closedEarly, id)
		}
	}
}

// ServePencil executes one pencil sub-operation, filling resp with the
// echoed sub-header and any result samples (which may alias op.Data).
// An error return means the op did nothing durable; the transport layer
// reports it to the coordinator as a FlagError response.
func (w *Worker) ServePencil(ctx context.Context, op, resp *wire.PencilOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	*resp = wire.PencilOp{
		Sub: op.Sub, Dims: op.Dims,
		Rows: op.Rows, Cols: op.Cols, PlaneRows: op.PlaneRows,
		RowLo: op.RowLo, RowN: op.RowN, ColLo: op.ColLo, ColN: op.ColN,
		Job: op.Job, Inverse: op.Inverse,
		Data: resp.Data[:0],
	}
	switch op.Sub {
	case wire.PencilOpen:
		return w.open(op)
	case wire.PencilRows:
		return w.rows(op, resp)
	case wire.PencilDeposit:
		return w.deposit(op)
	case wire.PencilColFFT:
		return w.colFFT(op)
	case wire.PencilRead:
		return w.read(op, resp)
	case wire.PencilClose:
		return w.close(op)
	default:
		return fmt.Errorf("pencil: unknown sub-op %d", op.Sub)
	}
}

// checkShape validates the sub-header's shape fields shared by all ops.
func checkShape(op *wire.PencilOp) (rows, cols int, err error) {
	rows, cols = int(op.Rows), int(op.Cols)
	if rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("pencil: shape %dx%d has a side < 1", rows, cols)
	}
	if op.Dims == 3 {
		pr := int(op.PlaneRows)
		if pr < 1 || cols%pr != 0 {
			return 0, 0, fmt.Errorf("pencil: 3D plane rows %d does not divide cols %d", pr, cols)
		}
	} else if op.Dims != 2 {
		return 0, 0, fmt.Errorf("pencil: dims %d not 2 or 3", op.Dims)
	}
	return rows, cols, nil
}

// open allocates the band for a new job.
func (w *Worker) open(op *wire.PencilOp) error {
	rows, _, err := checkShape(op)
	if err != nil {
		return err
	}
	colN := int(op.ColN)
	if colN < 1 {
		return fmt.Errorf("pencil: open with band width %d", colN)
	}
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sweepLocked(now)
	if _, ok := w.jobs[op.Job]; ok {
		return fmt.Errorf("pencil: job %d already open", op.Job)
	}
	if _, ok := w.closedEarly[op.Job]; ok {
		return fmt.Errorf("pencil: job %d was closed before it opened", op.Job)
	}
	if len(w.jobs) >= w.cfg.MaxJobs {
		w.rejected++
		return fmt.Errorf("%s %d jobs already open", busyPrefix, len(w.jobs))
	}
	// The band plus the column-FFT scratch, both complex128, costs
	// 16*rows*(colN+1) bytes. Rows and ColN arrive as untrusted uint32
	// wire fields, so bound rows by division before multiplying: the
	// straight product wraps int64 for hostile shapes (e.g. Rows=2^31,
	// ColN=2^31-1 gives 0), slipping past the cap check into a make
	// that panics the serving process.
	if int64(rows) > w.cfg.MemCap/16/int64(colN+1) {
		w.rejected++
		return fmt.Errorf("%s band %dx%d cannot fit cap %d", busyPrefix, rows, colN, w.cfg.MemCap)
	}
	need := int64(16) * int64(rows) * int64(colN+1)
	if w.inUse+need > w.cfg.MemCap {
		w.rejected++
		return fmt.Errorf("%s band needs %d bytes, %d of %d in use", busyPrefix, need, w.inUse, w.cfg.MemCap)
	}
	w.jobs[op.Job] = &wjob{
		rows:    rows,
		colN:    colN,
		need:    need,
		band:    make([]complex128, rows*colN),
		scratch: make([]complex128, rows),
		expires: now.Add(w.cfg.JobTTL),
	}
	w.inUse += need
	w.opens++
	if w.inUse > w.peak {
		w.peak = w.inUse
	}
	return nil
}

// lookup fetches an open job and refreshes its TTL.
func (w *Worker) lookup(id uint64) (*wjob, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sweepLocked(now)
	j, ok := w.jobs[id]
	if !ok {
		// Most often the TTL sweep reclaimed the band while the
		// coordinator stalled — transient state, hence busy-classified.
		return nil, fmt.Errorf("%s job %d expired or not open", busyPrefix, id)
	}
	j.expires = now.Add(w.cfg.JobTTL)
	return j, nil
}

// rows row-transforms the carried slab in place: RowN full rows for 2D,
// RowN x-planes (each PlaneRows x Cols/PlaneRows) for 3D. Stateless —
// it touches no job and charges nothing against the cap beyond the
// frame the transport already holds. Run transforms rows itself, so only
// coordinators of older releases send this op.
func (w *Worker) rows(op, resp *wire.PencilOp) error {
	rows, cols, err := checkShape(op)
	if err != nil {
		return err
	}
	n := int(op.RowN)
	if n < 1 || len(op.Data) != n*cols {
		return fmt.Errorf("pencil: rows op carries %d samples, want %d x %d", len(op.Data), n, cols)
	}
	shape := Shape2D(rows, cols)
	if op.Dims == 3 {
		shape.PlaneRows = int(op.PlaneRows)
	}
	rp, err := newRowPlan(w.cfg.Plans, shape)
	if err != nil {
		return err
	}
	rp.transform(op.Data, op.Inverse)
	resp.Data = op.Data
	return nil
}

// deposit stores a row-transformed shard into the open band — the
// receive half of the distributed transpose.
func (w *Worker) deposit(op *wire.PencilOp) error {
	j, err := w.lookup(op.Job)
	if err != nil {
		return err
	}
	rowLo, rowN, colN := int(op.RowLo), int(op.RowN), int(op.ColN)
	if colN != j.colN {
		return fmt.Errorf("pencil: deposit width %d, band width %d", colN, j.colN)
	}
	if rowN < 1 || rowLo < 0 || rowLo+rowN > j.rows {
		return fmt.Errorf("pencil: deposit rows [%d,%d) outside band height %d", rowLo, rowLo+rowN, j.rows)
	}
	if len(op.Data) != rowN*colN {
		return fmt.Errorf("pencil: deposit carries %d samples, want %d", len(op.Data), rowN*colN)
	}
	j.mu.Lock()
	copy(j.band[rowLo*colN:(rowLo+rowN)*colN], op.Data)
	j.mu.Unlock()
	return nil
}

// colFFT runs the length-rows column transforms over the band in place.
func (w *Worker) colFFT(op *wire.PencilOp) error {
	j, err := w.lookup(op.Job)
	if err != nil {
		return err
	}
	colT, err := w.cfg.Plans.AnyPlan(j.rows)
	if err != nil {
		return err
	}
	j.mu.Lock()
	fft.TransformColumns(colT, j.band, j.rows, j.colN, op.Inverse, j.scratch)
	j.mu.Unlock()
	return nil
}

// read returns rows [RowLo, RowLo+RowN) of the band — the gather half
// of the inverse transpose.
func (w *Worker) read(op, resp *wire.PencilOp) error {
	j, err := w.lookup(op.Job)
	if err != nil {
		return err
	}
	rowLo, rowN := int(op.RowLo), int(op.RowN)
	if rowN < 1 || rowLo < 0 || rowLo+rowN > j.rows {
		return fmt.Errorf("pencil: read rows [%d,%d) outside band height %d", rowLo, rowLo+rowN, j.rows)
	}
	j.mu.Lock()
	resp.Data = append(resp.Data[:0], j.band[rowLo*j.colN:(rowLo+rowN)*j.colN]...)
	j.mu.Unlock()
	resp.ColN = uint32(j.colN)
	return nil
}

// close frees the band. Closing a job that is not open records its ID,
// so that an open for it landing later is refused; when MaxJobs IDs are
// already recorded, the one that expires first makes room.
func (w *Worker) close(op *wire.PencilOp) error {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	j, ok := w.jobs[op.Job]
	if !ok {
		w.sweepLocked(now)
		if w.closedEarly == nil {
			w.closedEarly = make(map[uint64]time.Time)
		}
		if len(w.closedEarly) >= w.cfg.MaxJobs {
			var first uint64
			var firstExp time.Time
			for id, exp := range w.closedEarly {
				if firstExp.IsZero() || exp.Before(firstExp) {
					first, firstExp = id, exp
				}
			}
			delete(w.closedEarly, first)
		}
		w.closedEarly[op.Job] = now.Add(w.cfg.JobTTL)
		return fmt.Errorf("%s job %d expired or not open", busyPrefix, op.Job)
	}
	delete(w.jobs, op.Job)
	w.inUse -= j.need
	return nil
}
