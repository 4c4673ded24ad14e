package server

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/pencil"
)

// localPencilWorker names the in-process worker of the single-node
// pencil transport. Cluster mode replaces the name with real ring
// addresses.
const localPencilWorker = "local"

// ---- /v1/fft2d ----

// FFT2DRequest asks for one multidimensional FFT over row-major
// complex input. Rows x Cols is a 2D transform; Depth > 1 extends it to
// a Rows x Cols x Depth 3D transform (input ordered x, then y, then z).
// The request always runs through the pencil coordinator, which
// transforms every row itself: single-node the in-process worker holds
// the column bands, in cluster mode the bands spread across the ring and
// the transpose travels the wire protocol.
type FFT2DRequest struct {
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Depth   int       `json:"depth,omitempty"`
	Input   []Complex `json:"input"`
	Inverse bool      `json:"inverse,omitempty"`
}

// FFT2DResponse carries the transformed array plus the run's
// distribution and communication accounting — the serving-layer view of
// the paper's partitioned-butterfly cost model.
type FFT2DResponse struct {
	Rows    int  `json:"rows"`
	Cols    int  `json:"cols"`
	Depth   int  `json:"depth,omitempty"`
	Inverse bool `json:"inverse,omitempty"`
	// Distributed is true when more than one worker shared the run.
	Distributed bool `json:"distributed"`
	Workers     int  `json:"workers"`
	Bands       int  `json:"bands"`
	// Waves > 1 means the transform ran out of core: column bands were
	// processed in batches bounded by the per-node memory cap.
	Waves int `json:"waves"`
	// Wire accounting: whole frames moved by pencil sub-operations, the
	// analytical transpose floor, and achieved/floor (>= 1 whenever any
	// shard crossed the wire; 0 for a purely in-process run).
	WireBytesSent     int64     `json:"wire_bytes_sent"`
	WireBytesRecv     int64     `json:"wire_bytes_recv"`
	CommFloorBytes    int64     `json:"comm_floor_bytes"`
	CommRooflineRatio float64   `json:"comm_roofline_ratio"`
	Output            []Complex `json:"output"`
}

// pencilWorkers returns the schedule for one run: in cluster mode the
// ring members that can actually serve pencil shards — self plus every
// peer that advertised wire v2 — and the in-process worker otherwise.
// Pencil frames are v2-only, so one v1-only straggler in the ring must
// shrink the schedule, not fail every run.
func (s *Server) pencilWorkers(ctx context.Context) []string {
	if s.cluster == nil {
		return []string{localPencilWorker}
	}
	self := s.cluster.Registry().Self()
	members := s.cluster.Registry().Ring().Members()
	workers := make([]string, 0, len(members))
	for _, m := range members {
		if m == self || s.cluster.PencilCapable(ctx, m) {
			workers = append(workers, m)
		}
	}
	if len(workers) == 0 {
		// Ring empty (every peer marked down) or no capable member:
		// serve on self alone.
		return []string{self}
	}
	return workers
}

// handleFFT2D serves distributed 2D/3D pencil FFTs. The whole run is
// one worker-pool job: coordinating a pencil run is itself
// compute-bearing work (the coordinator runs every row FFT in process),
// so it gets the pool's backpressure like any transform.
func (s *Server) handleFFT2D(w http.ResponseWriter, r *http.Request) {
	var req FFT2DRequest
	if err := decodeBody(w, r, s.maxBodyBytes(), &req); err != nil {
		writeError(w, err)
		return
	}
	depth := req.Depth
	if depth == 0 {
		depth = 1
	}
	if req.Rows < 1 || req.Cols < 1 || depth < 1 {
		writeError(w, badRequest("shape %dx%dx%d: sides must be at least 1", req.Rows, req.Cols, depth))
		return
	}
	// Bound the product by division before multiplying: hostile sides
	// wrap int (2^62+1 rows of 4 columns multiply to 4 samples), slip
	// under the limit and fail the run with a 500.
	if limit := s.cfg.MaxTransformLen; req.Cols > limit/depth || req.Rows > limit/(req.Cols*depth) {
		writeError(w, badRequest("shape %dx%dx%d exceeds transform length limit %d",
			req.Rows, req.Cols, depth, limit))
		return
	}
	total := req.Rows * req.Cols * depth
	if len(req.Input) != total {
		writeError(w, badRequest("input has %d samples, shape %dx%dx%d needs %d",
			len(req.Input), req.Rows, req.Cols, depth, total))
		return
	}
	shape := pencil.Shape2D(req.Rows, req.Cols)
	if depth > 1 {
		shape = pencil.Shape3D(req.Rows, req.Cols, depth)
	}

	var resp *FFT2DResponse
	var runErr error
	poolErr := s.pool.do(r.Context(), func() {
		in := toComplex(req.Input)
		out := make([]complex128, total)
		workers := s.pencilWorkers(r.Context())
		stats, err := pencil.Run(r.Context(), pencil.Config{
			Shape:     shape,
			Inverse:   req.Inverse,
			Workers:   workers,
			Transport: s.pencilTransport,
			MemCap:    s.cfg.PencilMemCap,
			Metrics:   s.pencilMetrics,
		}, pencil.SliceSource{Data: in, Cols: shape.Cols}, pencil.SliceSink{Data: out, Cols: shape.Cols})
		if err != nil {
			var remote *cluster.RemoteError
			switch {
			case errors.As(err, &remote) && pencil.IsBusyMsg(remote.Msg):
				// The peer rejected on load or reclaimed state (memory
				// cap, job limit, TTL expiry) — transient and retryable,
				// not the caller's error.
				runErr = unavailable("%s", remote.Msg)
			case errors.As(err, &remote):
				// The peer rejected the run's shape; the same validation
				// would fail anywhere, so it is the caller's error.
				runErr = badRequest("%s", remote.Msg)
			case pencil.IsBusyMsg(err.Error()):
				// The same transient rejections from the in-process
				// worker (single-node mode has no RemoteError wrapper).
				runErr = unavailable("%s", err.Error())
			default:
				runErr = err
			}
			return
		}
		samples, err := fromComplex(out)
		if err != nil {
			runErr = err
			return
		}
		resp = &FFT2DResponse{
			Rows:              req.Rows,
			Cols:              req.Cols,
			Depth:             req.Depth,
			Inverse:           req.Inverse,
			Distributed:       stats.Workers > 1,
			Workers:           stats.Workers,
			Bands:             stats.Bands,
			Waves:             stats.Waves,
			WireBytesSent:     stats.WireBytesSent,
			WireBytesRecv:     stats.WireBytesRecv,
			CommFloorBytes:    stats.CommFloorBytes,
			CommRooflineRatio: stats.RooflineRatio,
			Output:            samples,
		}
	})
	if poolErr != nil {
		writeError(w, poolErr)
		return
	}
	if runErr != nil {
		writeError(w, runErr)
		return
	}
	s.metrics.transforms.Add(1)
	writeJSON(w, resp)
}
