package perfq

import (
	"fmt"
	"strconv"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/netstore"
	"perfq/internal/obs"
)

// BackingServer is a standalone TCP backing store serving the query's
// switch-resident aggregation — the scale-out half of §3.2's split
// key-value store, playing the role the paper assigns to Memcached/Redis.
type BackingServer struct {
	srv *netstore.Server
	f   *fold.Func
}

// ServeBackingStore starts a TCP backing store on addr (use ":0" for
// an ephemeral port) hosting one store per switch program of the
// query. Legacy clients (12-byte HELLO) bind program 0; program-aware
// clients select their store at handshake.
func (q *Query) ServeBackingStore(addr string) (*BackingServer, error) {
	if len(q.plan.Programs) == 0 {
		return nil, fmt.Errorf("perfq: query has no switch-resident aggregation to back")
	}
	folds := make([]*fold.Func, len(q.plan.Programs))
	for i, prog := range q.plan.Programs {
		folds[i] = prog.Fold
	}
	srv, err := netstore.NewServer(addr, folds...)
	if err != nil {
		return nil, err
	}
	return &BackingServer{srv: srv, f: folds[0]}, nil
}

// Addr returns the bound listen address.
func (s *BackingServer) Addr() string { return s.srv.Addr() }

// StateLen returns the state vector width the server expects.
func (s *BackingServer) StateLen() int { return s.f.StateLen() }

// MergeKind names the reconciliation behaviour (linear/assoc/none).
func (s *BackingServer) MergeKind() string { return s.f.Merge.String() }

// StatsLine summarizes the store for logs, with the connections turned
// away at the server's connection cap.
func (s *BackingServer) StatsLine() string {
	st := s.srv.Store().Stats()
	valid, total := s.srv.Store().Accuracy()
	return fmt.Sprintf("keys=%d merges=%d appends=%d valid=%d/%d rejected=%d",
		st.Keys, st.Merges, st.Appends, valid, total, s.srv.Rejected())
}

// Close stops the server.
func (s *BackingServer) Close() error { return s.srv.Close() }

// BackingCluster is a set of in-process backing stores for one query —
// the server side of an elastic backing tier (normally each member
// would be its own cmd/backingstore process on its own machine).
type BackingCluster struct {
	srvs []*BackingServer
}

// ServeBackingStores starts n TCP backing stores on ephemeral ports,
// all serving the query's first switch program.
func (q *Query) ServeBackingStores(n int) (*BackingCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("perfq: cluster needs at least one backing store")
	}
	c := &BackingCluster{}
	for i := 0; i < n; i++ {
		srv, err := q.ServeBackingStore("127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.srvs = append(c.srvs, srv)
	}
	return c, nil
}

// Addrs lists the cluster's listen addresses, in member order.
func (c *BackingCluster) Addrs() []string {
	out := make([]string, len(c.srvs))
	for i, s := range c.srvs {
		out[i] = s.Addr()
	}
	return out
}

// StatsLine summarizes every member store for logs.
func (c *BackingCluster) StatsLine() string {
	line := ""
	for i, s := range c.srvs {
		if i > 0 {
			line += " | "
		}
		line += s.Addr() + " " + s.StatsLine()
	}
	return line
}

// Close stops every member.
func (c *BackingCluster) Close() error {
	var first error
	for _, s := range c.srvs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BackingPool mirrors the query's switch-resident evictions into a
// resilient pool of backing stores: keys partition across backends by
// rendezvous hashing, each backend gets health probes plus a bounded
// async eviction queue, and a dead backend degrades accuracy (counted
// in DroppedEvictions) instead of stalling the datapath. Every switch
// program gets its own pool keyspace (one netstore.Pool per program,
// each connection HELLO-bound to its program's server store), so
// multi-program queries mirror every fold, not just program 0's. It is
// the client side of the elastic backing tier; pair it with
// WithBackingPool to tap a run's evictions.
type BackingPool struct {
	pools []*netstore.Pool
}

// BackingPoolConfig tunes the pool; the zero value selects defaults
// (2s deadlines, 500ms probes, 1024-deep queues). A backend whose dial
// fails is marked down at once and dialed only by its 500ms probe
// until it answers again.
type BackingPoolConfig struct {
	// QueueDepth bounds each backend's async eviction queue; overflow
	// drops the oldest queued eviction (0 = 1024).
	QueueDepth int
	// Metrics, when non-nil, attaches its flight recorder to the pool:
	// health flips, markdowns and queue overflows land in the journal
	// served at /debug/events. (The metric families are registered
	// separately, by WithMetrics at run time.)
	Metrics *Metrics
}

// DialBackingPool connects one pool per switch program over the given
// backend addresses. Program 0's connections use the legacy HELLO;
// later programs bind their server-side stores with the extended
// handshake. Backends that are down at dial time are routed around and
// picked back up by probing; an address listed twice is an error.
func (q *Query) DialBackingPool(addrs []string, cfg BackingPoolConfig) (*BackingPool, error) {
	if len(q.plan.Programs) == 0 {
		return nil, fmt.Errorf("perfq: query has no switch-resident aggregation to back")
	}
	bp := &BackingPool{}
	for i, prog := range q.plan.Programs {
		pc := netstore.PoolConfig{
			Client:     netstore.Options{Program: i},
			QueueDepth: cfg.QueueDepth,
		}
		if cfg.Metrics != nil {
			pc.Journal = cfg.Metrics.journal
		}
		p, err := netstore.DialPool(addrs, prog.Fold, pc)
		if err != nil {
			bp.Close()
			return nil, err
		}
		bp.pools = append(bp.pools, p)
	}
	return bp, nil
}

// onEvict adapts the pools to the datapath's batch observer: each
// program's evictions route to that program's pool keyspace. The queue
// push never blocks the datapath.
func (p *BackingPool) onEvict(prog int, b *kvstore.EvictBatch) {
	if prog < 0 || prog >= len(p.pools) {
		return
	}
	p.pools[prog].HandleBatch(b)
}

// Sync drains every backend queue of every program's pool so each
// eviction offered so far is either acked by its backend or counted
// dropped.
func (p *BackingPool) Sync() error {
	var first error
	for _, pool := range p.pools {
		if err := pool.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DroppedEvictions is the pool's degradation stat: evictions that will
// never reach any backend (queue overflow, chunks refused by a down
// backend, frames lost on broken connections), summed across programs.
// Each one is a missing epoch in the backing tier — the same accuracy
// semantics as a cache overflow.
func (p *BackingPool) DroppedEvictions() uint64 {
	var total uint64
	for _, pool := range p.pools {
		total += pool.DroppedEvictions()
	}
	return total
}

// Healthy reports per-backend health, in address order (program 0's
// probers; all programs probe the same backends).
func (p *BackingPool) Healthy() []bool { return p.pools[0].Healthy() }

// Addrs lists the backend addresses, in routing order.
func (p *BackingPool) Addrs() []string { return p.pools[0].Addrs() }

// Programs returns how many per-program pools the tier runs.
func (p *BackingPool) Programs() int { return len(p.pools) }

// Stats snapshots per-backend shipping and store counters for program 0
// (the historical single-program view).
func (p *BackingPool) Stats() []netstore.BackendStats { return p.pools[0].Stats() }

// StatsFor snapshots program prog's per-backend counters (nil when out
// of range).
func (p *BackingPool) StatsFor(prog int) []netstore.BackendStats {
	if prog < 0 || prog >= len(p.pools) {
		return nil
	}
	return p.pools[prog].Stats()
}

// StatsLine renders a one-line health/drop summary for logs.
func (p *BackingPool) StatsLine() string {
	line := ""
	for i, pool := range p.pools {
		if i > 0 {
			line += " || "
		}
		if len(p.pools) > 1 {
			line += fmt.Sprintf("prog%d ", i)
		}
		line += pool.StatsLine()
	}
	return line
}

// Close drains briefly and tears every program's pool down. A second
// Close returns nil.
func (p *BackingPool) Close() error {
	var first error
	for _, pool := range p.pools {
		if err := pool.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// register wires every program pool's metric families into reg, with a
// prog label when the query has more than one program.
func (p *BackingPool) register(reg *obs.Registry) {
	for i, pool := range p.pools {
		labels := ""
		if len(p.pools) > 1 {
			labels = `prog="` + strconv.Itoa(i) + `"`
		}
		pool.Register(reg, labels)
	}
}
