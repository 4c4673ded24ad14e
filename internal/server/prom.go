package server

import (
	"io"
	"runtime"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/roofline"
)

// writePrometheus renders the full metrics surface in Prometheus text
// exposition format 0.0.4: the daemon counters of Snapshot, per-route
// latency histograms with cumulative le buckets, plan-cache and
// worker-pool gauges, and the Go runtime gauges (goroutines, heap, GC
// pause) a dashboard needs next to service latency. Families and label
// sets are emitted in sorted route order, so consecutive scrapes of an
// idle daemon are byte-identical.
func (m *Metrics) writePrometheus(w io.Writer, s Snapshot) error {
	pw := obs.NewPromWriter(w)

	pw.Header("fftd_uptime_seconds", "gauge", "Seconds since the daemon started.")
	pw.Sample("fftd_uptime_seconds", nil, s.UptimeSeconds)

	pw.Header("fftd_requests_total", "counter", "HTTP requests served, by route pattern.")
	for _, route := range s.RouteOrder {
		pw.Sample("fftd_requests_total", []obs.Label{{Name: "route", Value: route}}, float64(s.Requests[route]))
	}

	pw.Header("fftd_responses_total", "counter", "HTTP responses, by status class.")
	for _, class := range []string{"2xx", "4xx", "5xx"} {
		pw.Sample("fftd_responses_total", []obs.Label{{Name: "class", Value: class}}, float64(s.Responses[class]))
	}

	pw.Header("fftd_transforms_total", "counter", "Individual FFT transforms served.")
	pw.Sample("fftd_transforms_total", nil, float64(s.Transforms))
	pw.Header("fftd_simulations_total", "counter", "Simulation runs executed (coalesced followers excluded).")
	pw.Sample("fftd_simulations_total", nil, float64(s.Simulations))
	pw.Header("fftd_coalesced_total", "counter", "Requests served by another identical in-flight execution.")
	pw.Sample("fftd_coalesced_total", nil, float64(s.Coalesced))
	pw.Header("fftd_drained_total", "counter", "Requests rejected because the server was draining.")
	pw.Sample("fftd_drained_total", nil, float64(s.Drained))
	pw.Header("fftd_slow_traces_total", "counter", "Requests captured into the slow-trace ring.")
	pw.Sample("fftd_slow_traces_total", nil, float64(s.SlowCaptured))

	pw.Header("fftd_plan_cache_hits_total", "counter", "Plan cache hits.")
	pw.Sample("fftd_plan_cache_hits_total", nil, float64(s.PlanCache.Hits))
	pw.Header("fftd_plan_cache_misses_total", "counter", "Plan cache misses.")
	pw.Sample("fftd_plan_cache_misses_total", nil, float64(s.PlanCache.Misses))
	pw.Header("fftd_plan_cache_evictions_total", "counter", "Plans evicted from the cache.")
	pw.Sample("fftd_plan_cache_evictions_total", nil, float64(s.PlanCache.Evictions))
	pw.Header("fftd_plan_cache_size", "gauge", "Plans currently cached.")
	pw.Sample("fftd_plan_cache_size", nil, float64(s.PlanCache.Size))
	pw.Header("fftd_plan_cache_capacity", "gauge", "Plan cache capacity.")
	pw.Sample("fftd_plan_cache_capacity", nil, float64(s.PlanCache.Capacity))
	pw.Header("fftd_plan_cache_hit_ratio", "gauge", "Hits / lookups since start (0 when no lookups).")
	ratio := 0.0
	if lookups := s.PlanCache.Hits + s.PlanCache.Misses; lookups > 0 {
		ratio = float64(s.PlanCache.Hits) / float64(lookups)
	}
	pw.Sample("fftd_plan_cache_hit_ratio", nil, ratio)

	// Per-shard occupancy and evictions, labelled by shard index in
	// natural order (the snapshot slice is already index-ordered, so the
	// exposition stays deterministic).
	pw.Header("fftd_plan_cache_shard_size", "gauge", "Plans cached per LRU shard.")
	for i, sh := range s.PlanCache.Shards {
		pw.Sample("fftd_plan_cache_shard_size",
			[]obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(sh.Size))
	}
	pw.Header("fftd_plan_cache_shard_capacity", "gauge", "Plan capacity per LRU shard.")
	for i, sh := range s.PlanCache.Shards {
		pw.Sample("fftd_plan_cache_shard_capacity",
			[]obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(sh.Capacity))
	}
	pw.Header("fftd_plan_cache_shard_evictions_total", "counter", "Plans evicted per LRU shard.")
	for i, sh := range s.PlanCache.Shards {
		pw.Sample("fftd_plan_cache_shard_evictions_total",
			[]obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(sh.Evictions))
	}

	pw.Header("fftd_pool_workers", "gauge", "Worker pool size.")
	pw.Sample("fftd_pool_workers", nil, float64(s.Queue.Workers))
	pw.Header("fftd_pool_queue_capacity", "gauge", "Worker pool queue capacity.")
	pw.Sample("fftd_pool_queue_capacity", nil, float64(s.Queue.Capacity))
	pw.Header("fftd_pool_queue_depth", "gauge", "Jobs waiting for a worker.")
	pw.Sample("fftd_pool_queue_depth", nil, float64(s.Queue.Queued))
	pw.Header("fftd_pool_active", "gauge", "Jobs currently executing (in flight).")
	pw.Sample("fftd_pool_active", nil, float64(s.Queue.Active))
	pw.Header("fftd_pool_submitted_total", "counter", "Jobs accepted into the pool queue.")
	pw.Sample("fftd_pool_submitted_total", nil, float64(s.Queue.Submitted))
	pw.Header("fftd_pool_rejected_total", "counter", "Jobs rejected with 429 because queue and workers were full.")
	pw.Sample("fftd_pool_rejected_total", nil, float64(s.Queue.Rejected))

	// Cluster routing counters, present only in cluster mode so
	// single-node expositions are unchanged.
	if s.Cluster != nil {
		pw.Header("fftd_cluster_local_total", "counter", "Transforms executed on the local shard.")
		pw.Sample("fftd_cluster_local_total", nil, float64(s.Cluster.Local))
		pw.Header("fftd_cluster_forwarded_total", "counter", "Transforms forwarded to a peer.")
		pw.Sample("fftd_cluster_forwarded_total", nil, float64(s.Cluster.Forwarded))
		pw.Header("fftd_cluster_hedged_total", "counter", "Hedged attempts launched by the hedge timer.")
		pw.Sample("fftd_cluster_hedged_total", nil, float64(s.Cluster.Hedged))
		pw.Header("fftd_cluster_failovers_total", "counter", "Attempts launched after a hard peer failure.")
		pw.Sample("fftd_cluster_failovers_total", nil, float64(s.Cluster.Failovers))
		pw.Header("fftd_cluster_retries_total", "counter", "Full preference-list retry rounds.")
		pw.Sample("fftd_cluster_retries_total", nil, float64(s.Cluster.Retries))
		pw.Header("fftd_cluster_breaker_skips_total", "counter", "Peers skipped on an open circuit breaker.")
		pw.Sample("fftd_cluster_breaker_skips_total", nil, float64(s.Cluster.BreakerSkips))
		pw.Header("fftd_cluster_remote_errors_total", "counter", "Application errors returned by peers.")
		pw.Sample("fftd_cluster_remote_errors_total", nil, float64(s.Cluster.RemoteErrors))

		// Every hedged attempt resolves to exactly one outcome, so the
		// three series sum to fftd_cluster_hedged_total.
		pw.Header("fftd_cluster_hedge_outcome_total", "counter", "Hedged attempts by resolution: won the round, lost (errored while it was live), or canceled in flight.")
		for _, o := range []struct {
			outcome string
			v       int64
		}{
			{"won", s.Cluster.HedgeWon},
			{"lost", s.Cluster.HedgeLost},
			{"canceled", s.Cluster.HedgeCanceled},
		} {
			pw.Sample("fftd_cluster_hedge_outcome_total",
				[]obs.Label{{Name: "outcome", Value: o.outcome}}, float64(o.v))
		}

		pw.Header("fftd_cluster_comm_bytes_total", "counter", "Transform-RPC wire bytes moved by this node's routing client (whole frames; heartbeat pings excluded).")
		pw.Sample("fftd_cluster_comm_bytes_total",
			[]obs.Label{{Name: "direction", Value: "received"}}, float64(s.Cluster.WireBytesRecv))
		pw.Sample("fftd_cluster_comm_bytes_total",
			[]obs.Label{{Name: "direction", Value: "sent"}}, float64(s.Cluster.WireBytesSent))

		pw.Header("fftd_comm_roofline_ratio", "gauge", "Achieved cluster communication over the analytical floor (>= 1 once any transform was served remotely; 0 before).")
		pw.Sample("fftd_comm_roofline_ratio", nil, roofline.Ratio(
			float64(s.Cluster.WireBytesSent+s.Cluster.WireBytesRecv),
			float64(s.Cluster.CommFloorBytes)))
	}

	// Pencil (distributed 2D/3D FFT) families. The transport totals are
	// added at exactly the points the coordinator's spans record bytes,
	// so fftd_pencil_wire_bytes_total reconciles against traced span
	// rollups; the roofline gauge compares whole-frame bytes against the
	// analytical transpose floor (>= 1 once any shard crossed a wire).
	if s.Pencil != nil {
		p := s.Pencil
		pw.Header("fftd_pencil_transforms_total", "counter", "Pencil FFT runs completed, by dimensionality.")
		pw.Sample("fftd_pencil_transforms_total", []obs.Label{{Name: "dims", Value: "2"}}, float64(p.Runs2D))
		pw.Sample("fftd_pencil_transforms_total", []obs.Label{{Name: "dims", Value: "3"}}, float64(p.Runs3D))
		pw.Header("fftd_pencil_errors_total", "counter", "Pencil FFT runs that failed.")
		pw.Sample("fftd_pencil_errors_total", nil, float64(p.Errors))
		pw.Header("fftd_pencil_waves_total", "counter", "Column-band waves executed (more waves than runs means out-of-core streaming).")
		pw.Sample("fftd_pencil_waves_total", nil, float64(p.Waves))
		pw.Header("fftd_pencil_cap_retries_total", "counter", "Pencil runs re-planned with narrower column bands after a peer memory-cap rejection.")
		pw.Sample("fftd_pencil_cap_retries_total", nil, float64(p.CapRetries))

		pw.Header("fftd_pencil_rpcs_total", "counter", "Pencil sub-operations issued by this node's coordinator, by stage.")
		for _, st := range []struct {
			stage string
			v     int64
		}{
			{"open", p.RPCsOpen},
			{"deposit", p.RPCsDeposit},
			{"colfft", p.RPCsColFFT},
			{"read", p.RPCsRead},
			{"close", p.RPCsClose},
		} {
			pw.Sample("fftd_pencil_rpcs_total",
				[]obs.Label{{Name: "stage", Value: st.stage}}, float64(st.v))
		}

		pw.Header("fftd_pencil_wire_bytes_total", "counter", "Pencil wire bytes moved by this node's coordinator (whole frames; in-process calls excluded).")
		pw.Sample("fftd_pencil_wire_bytes_total",
			[]obs.Label{{Name: "direction", Value: "received"}}, float64(p.WireBytesRecv))
		pw.Sample("fftd_pencil_wire_bytes_total",
			[]obs.Label{{Name: "direction", Value: "sent"}}, float64(p.WireBytesSent))
		pw.Header("fftd_pencil_comm_floor_bytes_total", "counter", "Analytical lower bound on pencil communication: sample payload bytes of remote sub-operations.")
		pw.Sample("fftd_pencil_comm_floor_bytes_total", nil, float64(p.CommFloorBytes))
		pw.Header("fftd_pencil_roofline_ratio", "gauge", "Achieved pencil communication over the analytical floor (>= 1 once any shard crossed a wire; 0 before).")
		pw.Sample("fftd_pencil_roofline_ratio", nil, roofline.Ratio(
			float64(p.WireBytesSent+p.WireBytesRecv), float64(p.CommFloorBytes)))
	}
	if s.PencilWorker != nil {
		ws := s.PencilWorker
		pw.Header("fftd_pencil_open_jobs", "gauge", "Pencil band jobs currently open on the local worker.")
		pw.Sample("fftd_pencil_open_jobs", nil, float64(ws.OpenJobs))
		pw.Header("fftd_pencil_band_bytes", "gauge", "Local pencil worker band memory, current and high-water, against its cap.")
		pw.Sample("fftd_pencil_band_bytes", []obs.Label{{Name: "state", Value: "in_use"}}, float64(ws.BytesInUse))
		pw.Sample("fftd_pencil_band_bytes", []obs.Label{{Name: "state", Value: "peak"}}, float64(ws.BytesPeak))
		pw.Sample("fftd_pencil_band_bytes", []obs.Label{{Name: "state", Value: "cap"}}, float64(ws.MemCap))
		pw.Header("fftd_pencil_jobs_rejected_total", "counter", "Pencil band opens rejected by the memory cap or job limit.")
		pw.Sample("fftd_pencil_jobs_rejected_total", nil, float64(ws.Rejected))
		pw.Header("fftd_pencil_jobs_expired_total", "counter", "Pencil band jobs reclaimed by the idle TTL sweep.")
		pw.Sample("fftd_pencil_jobs_expired_total", nil, float64(ws.ExpiredJobs))
	}

	// Per-route latency histogram with the fixed cumulative bounds of
	// latencyBounds plus the mandatory +Inf bucket.
	pw.Header("fftd_request_duration_seconds", "histogram", "Request wall time by route.")
	for _, route := range s.RouteOrder {
		h := s.routeLatency[route]
		rl := obs.Label{Name: "route", Value: route}
		for i, le := range latencyBounds {
			pw.Sample("fftd_request_duration_seconds_bucket",
				[]obs.Label{rl, {Name: "le", Value: obs.FormatValue(le)}}, float64(h.cumulative[i]))
		}
		pw.Sample("fftd_request_duration_seconds_bucket",
			[]obs.Label{rl, {Name: "le", Value: "+Inf"}}, float64(h.cumulative[len(latencyBounds)]))
		pw.Sample("fftd_request_duration_seconds_sum", []obs.Label{rl}, h.sum.Seconds())
		pw.Sample("fftd_request_duration_seconds_count", []obs.Label{rl}, float64(h.count))
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pw.Header("go_goroutines", "gauge", "Number of live goroutines.")
	pw.Sample("go_goroutines", nil, float64(runtime.NumGoroutine()))
	pw.Header("go_memstats_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	pw.Sample("go_memstats_heap_alloc_bytes", nil, float64(ms.HeapAlloc))
	pw.Header("go_memstats_heap_objects", "gauge", "Number of allocated heap objects.")
	pw.Sample("go_memstats_heap_objects", nil, float64(ms.HeapObjects))
	pw.Header("go_gc_cycles_total", "counter", "Completed GC cycles.")
	pw.Sample("go_gc_cycles_total", nil, float64(ms.NumGC))
	pw.Header("go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	pw.Sample("go_gc_pause_seconds_total", nil, float64(ms.PauseTotalNs)/1e9)
	pw.Header("go_gc_pause_last_seconds", "gauge", "Duration of the most recent GC pause.")
	last := 0.0
	if ms.NumGC > 0 {
		last = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	pw.Sample("go_gc_pause_last_seconds", nil, last)

	return pw.Flush()
}
