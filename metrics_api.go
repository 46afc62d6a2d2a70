package perfq

import (
	"io"
	"net/http"

	"perfq/internal/obs"
)

// Metrics is a handle on a run's observability surface — the unified
// view over every instrumented layer: datapath packet/path/cache/
// store counters (per switch under WithFabric), shard-transport ring
// stats, window-runtime close latencies and stability, backing-pool
// health when a pool is attached, plus the deep-observability pair —
// sampled packet traces (Spans) and the control-plane flight recorder
// (Events). Build one with NewMetrics, pass it to a run via
// WithMetrics, and scrape it while the run is live: the hot path keeps
// plain counters and mirrors them at batch boundaries, and the trace
// sampler costs one AND+compare per key against a hash the router and
// cache compute anyway, so an attached Metrics costs the datapath
// nothing measurable per record.
//
// One Metrics may serve many runs (registration is idempotent); the
// families reflect whichever run is currently wired to the registry.
type Metrics struct {
	reg     *obs.Registry
	tracer  *obs.Tracer
	journal *obs.Journal
}

// DefaultTraceSampleExp is the default sampling exponent: 1 in 2^12 =
// 4096 keys carries a trace span. Cheap enough to leave on.
const DefaultTraceSampleExp = 12

// NewMetrics builds a registry with tracing at the default 1-in-4096
// sampling rate and a default-sized flight recorder. Use
// SetTraceSampling / SetJournalSize before the run to retune or
// disable either.
func NewMetrics() *Metrics {
	return &Metrics{
		reg:     obs.NewRegistry(),
		tracer:  obs.NewTracer(DefaultTraceSampleExp, 0),
		journal: obs.NewJournal(obs.DefaultJournal),
	}
}

// SetTraceSampling replaces the tracer with one sampling 1 in 2^k keys
// (k = 0 samples everything); a negative k disables tracing entirely.
// Call before the run is started — layers capture the tracer at build
// time.
func (m *Metrics) SetTraceSampling(k int) {
	if k < 0 {
		m.tracer = nil
		return
	}
	m.tracer = obs.NewTracer(k, 0)
}

// SetJournalSize replaces the flight recorder with one retaining the
// last n events (n <= 0 disables it). Call before the run is started.
func (m *Metrics) SetJournalSize(n int) {
	if n <= 0 {
		m.journal = nil
		return
	}
	m.journal = obs.NewJournal(n)
}

// Span is one sampled packet traversal: the key, its begin sequence,
// and the timestamped hops it crossed (route → transport → cache, or
// evict → ship).
type Span = obs.SpanSnap

// Event is one control-plane flight-recorder entry: window close/drop,
// barrier sync, health flip, pool markdown, queue overflow or a
// datapath's first program-set split, with a gap-free sequence number.
type Event = obs.Event

// Spans copies out the currently retained sampled spans, oldest first.
// Nil when tracing is disabled.
func (m *Metrics) Spans() []Span {
	if m.tracer == nil {
		return nil
	}
	return m.tracer.Spans()
}

// Events returns the journal's most recent n events in sequence order
// (all retained events when n <= 0). Nil when the journal is disabled.
func (m *Metrics) Events(n int) []Event {
	if m.journal == nil {
		return nil
	}
	if n <= 0 {
		n = int(^uint(0) >> 1)
	}
	return m.journal.Tail(n)
}

// Handler serves the live surface: /metrics (Prometheus text
// exposition), /debug/perfq (JSON drill-down, per-switch and
// per-backend series split out by label), /debug/trace (recent sampled
// spans, per-hop latency, slowest-N), /debug/events (journal tail with
// kind filters) and /debug/pprof. extra, when non-nil, is invoked per
// /debug/perfq request and marshaled under "extra" — pqrun uses it for
// the run's own status block.
func (m *Metrics) Handler(extra func() any) http.Handler {
	return obs.NewHandler(m.reg, m.tracer, m.journal, extra)
}

// WritePrometheus renders every family in Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}

// Value sums a metric family's series by name — e.g.
// Value("perfq_packets_total"). The second return is false for
// unregistered names.
func (m *Metrics) Value(name string) (float64, bool) {
	return m.reg.Value(name)
}

// Quantiles estimates quantiles of a histogram family by name (series
// merged), e.g. Quantiles("perfq_window_close_ns", 0.5, 0.99). False
// for unregistered or non-histogram names.
func (m *Metrics) Quantiles(name string, qs ...float64) ([]float64, bool) {
	return m.reg.Quantiles(name, qs...)
}

// WithMetrics attaches the registry to a run: every layer the run
// touches registers and feeds its families, the trace sampler marks
// records at the routers, and control-plane events land in the flight
// recorder. Safe to reuse across sequential runs.
func WithMetrics(m *Metrics) RunOption {
	return func(c *runConfig) {
		c.metrics = m.reg
		c.trace = m.tracer
		c.journal = m.journal
	}
}
