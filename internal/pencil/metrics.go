package pencil

import (
	"sync/atomic"

	"repro/internal/cluster/wire"
)

// Metrics counts pencil activity for one process: coordinator-side run
// and wire totals plus worker-side job/byte gauges. All fields are
// atomics, safe for concurrent runs; the server exports a snapshot
// under /metrics as the fftd_pencil_* Prometheus families.
//
// Wire byte totals are added at exactly the points the coordinator's
// spans call AddBytes, with the same values — so a traced run's span
// rollup reconciles exactly against the metrics deltas (pinned by
// TestRunSpansReconcileWithMetrics).
type Metrics struct {
	runs2D     atomic.Int64
	runs3D     atomic.Int64
	errors     atomic.Int64
	waves      atomic.Int64
	capRetries atomic.Int64

	rpcOpen    atomic.Int64
	rpcDeposit atomic.Int64
	rpcColFFT  atomic.Int64
	rpcRead    atomic.Int64
	rpcClose   atomic.Int64

	wireSent   atomic.Int64
	wireRecv   atomic.Int64
	floorBytes atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of the pencil counters.
type MetricsSnapshot struct {
	Runs2D     int64 `json:"runs_2d"`
	Runs3D     int64 `json:"runs_3d"`
	Errors     int64 `json:"errors"`
	Waves      int64 `json:"waves"`
	CapRetries int64 `json:"cap_retries"`

	RPCsOpen    int64 `json:"rpcs_open"`
	RPCsDeposit int64 `json:"rpcs_deposit"`
	RPCsColFFT  int64 `json:"rpcs_colfft"`
	RPCsRead    int64 `json:"rpcs_read"`
	RPCsClose   int64 `json:"rpcs_close"`

	WireBytesSent  int64 `json:"wire_bytes_sent"`
	WireBytesRecv  int64 `json:"wire_bytes_recv"`
	CommFloorBytes int64 `json:"comm_floor_bytes"`
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		Runs2D:         m.runs2D.Load(),
		Runs3D:         m.runs3D.Load(),
		Errors:         m.errors.Load(),
		Waves:          m.waves.Load(),
		CapRetries:     m.capRetries.Load(),
		RPCsOpen:       m.rpcOpen.Load(),
		RPCsDeposit:    m.rpcDeposit.Load(),
		RPCsColFFT:     m.rpcColFFT.Load(),
		RPCsRead:       m.rpcRead.Load(),
		RPCsClose:      m.rpcClose.Load(),
		WireBytesSent:  m.wireSent.Load(),
		WireBytesRecv:  m.wireRecv.Load(),
		CommFloorBytes: m.floorBytes.Load(),
	}
}

// RPCs sums the per-stage RPC counters.
func (s MetricsSnapshot) RPCs() int64 {
	return s.RPCsOpen + s.RPCsDeposit + s.RPCsColFFT + s.RPCsRead + s.RPCsClose
}

// countRPC bumps the per-stage counter for sub.
func (m *Metrics) countRPC(sub uint8) {
	if m == nil {
		return
	}
	switch sub {
	case wire.PencilOpen:
		m.rpcOpen.Add(1)
	case wire.PencilDeposit:
		m.rpcDeposit.Add(1)
	case wire.PencilColFFT:
		m.rpcColFFT.Add(1)
	case wire.PencilRead:
		m.rpcRead.Add(1)
	case wire.PencilClose:
		m.rpcClose.Add(1)
	}
}

func (m *Metrics) addWire(sent, recv, floor int64) {
	if m == nil {
		return
	}
	m.wireSent.Add(sent)
	m.wireRecv.Add(recv)
	m.floorBytes.Add(floor)
}
