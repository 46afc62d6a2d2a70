package netstore

import (
	"perfq/internal/obs"
)

// Pool instrumentation. Every number here is already maintained by the
// shipper/health machinery — per chunk, per reply or per probe, never
// per eviction — so registration wires scrape-time callbacks: no
// mirrors, no extra work on the eviction path. Each backend's series carry a `backend="addr"` label
// so /debug/perfq drills down per backend.

// Register wires the pool's families into reg under labels (e.g.
// `prog="0"`). Idempotent: re-registering the same pool replaces the
// callbacks.
func (p *Pool) Register(reg *obs.Registry, labels string) {
	reg.Counter("perfq_pool_no_backend_total",
		"Evictions dropped because no backend was healthy", labels,
		p.noBackend.Load)
	for _, b := range p.backends {
		b := b
		bl := obs.JoinLabels(labels, `backend="`+b.addr+`"`)
		reg.Gauge("perfq_pool_queue_depth",
			"Evictions queued for this backend's shipper", bl,
			func() float64 { _, _, queued := b.ship.q.counts(); return float64(queued) })
		reg.Gauge("perfq_pool_backend_healthy",
			"1 while the backend is up (may be dialed), 0 while marked down", bl,
			func() float64 { return b2f(b.health.healthy.Load()) })
		reg.Counter("perfq_pool_offered_total",
			"Evictions handed to this backend's shipper", bl,
			func() uint64 { offered, _, _ := b.ship.q.counts(); return offered })
		reg.Counter("perfq_pool_shipped_total",
			"Eviction frames written to this backend", bl,
			b.ship.cl.Evictions)
		reg.Counter("perfq_pool_acked_total",
			"Evictions a sync barrier confirmed applied", bl,
			b.ship.cl.Acked)
		reg.Counter("perfq_pool_dropped_total",
			"Evictions dropped for this backend (overflow + refused + lost)", bl,
			func() uint64 { return b.ship.Stats().Dropped })
		reg.Counter("perfq_pool_faults_total",
			"Refused or failed ships and failed sync barriers", bl,
			b.ship.faults.Load)
		reg.Counter("perfq_pool_health_ups_total",
			"Down-to-up health transitions", bl, b.health.ups.Load)
		reg.Counter("perfq_pool_health_downs_total",
			"Up-to-down health transitions", bl, b.health.downs.Load)
		reg.Counter("perfq_pool_probes_total",
			"Health probes attempted", bl, b.health.probes.Load)
		reg.Counter("perfq_pool_probe_failures_total",
			"Health probes that failed", bl, b.health.failures.Load)
		reg.HistVal("perfq_pool_sync_ns",
			"Sync marker round trip, written to reply read, nanoseconds", bl,
			&b.ship.cl.syncNs)
		reg.Counter("perfq_pool_sync_round_trips_total",
			"Sync marker replies read from this backend", bl,
			b.ship.cl.syncNs.Count)
		reg.HistVal("perfq_pool_write_frames",
			"Eviction frames per socket write (SyncBatch = full chunks, the producer is ahead; small = the shipper is idle and stealing)", bl,
			&b.ship.writeFrames)
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
