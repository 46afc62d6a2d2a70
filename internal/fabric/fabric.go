// Package fabric deploys a compiled query across a whole network: one
// independent set of stores (cache + backing store, §3's co-design) per
// physical switch of a topology — a switchsim.Datapath partitioned on
// the switch half of each record's queue ID — whose per-switch backing
// stores the datapath's reconcile merges into network-wide results. The
// fabric owns what is specific to a network: the topology → partition
// table, the switch names, the per-switch views, and the table of how
// per-switch states may be merged.
//
// The paper places its programmable key-value store on each switch; a
// network of switches therefore holds one independent store per switch
// for every query, and a key whose GROUPBY excludes the switch (a flow
// key, say) accumulates state on every switch its packets traverse. The
// collector's job is the spatial analogue of §3.2's temporal merge:
//
//   - Keys that include the switch dimension (qid or switch in the
//     GROUPBY) live on exactly one switch; the network-wide table is the
//     disjoint union of per-switch tables — exact for every fold.
//   - Commutative folds (identity-A linear updates with packet-pure B:
//     COUNT, SUM, AVG's pair) and associative folds (MAX/MIN) merge
//     per-switch states exactly regardless of how the sub-streams
//     interleaved in time.
//   - Everything else gets epoch-in-space semantics: a key observed by
//     more than one switch has no sound network-wide value (an EWMA's
//     trajectory depends on the global packet interleaving, which the
//     per-switch states cannot reconstruct), so such keys are dropped
//     from the network table and counted against spatial accuracy —
//     exactly how §3.2 treats multi-epoch keys in time. Per-switch
//     tables remain exact; queries wanting network-wide answers for
//     such folds include switch or qid in their key.
//
// The total cache SRAM budget is divided evenly across switches, so a
// fabric run occupies the same silicon operating point as the
// single-switch baseline it is compared against.
package fabric

import (
	"fmt"
	"slices"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// Config configures a fabric deployment.
type Config struct {
	// Switch is the datapath template. Its Geometry is the TOTAL cache
	// budget for the whole fabric, divided evenly across switches (zero
	// selects the paper's 2^18-pair 8-way point); Shards shards each
	// switch's stores internally. New supplies its Partition.
	Switch switchsim.Config
}

// engine is the datapath a Fabric is (the alias keeps the embedded
// field's name off the Datapath accessor's).
type engine = switchsim.Datapath

// Fabric is a deployed query: a datapath partitioned by switch. Process,
// Feed, Sync, EndFeed, Flush, CloseWindow, Run, Collect, Stats, Packets
// and Unrouted are the datapath's own; Tables and Accuracy are its
// network-wide reconcile (see MergeMode), memoized until the next Flush.
type Fabric struct {
	*engine
	topo  *topo.Topology
	ids   []uint16
	index []int32 // switch ID → position in ids (-1: not in the topology)
}

// New deploys a plan across every switch of a topology. Switch ID 0 —
// the host-NIC pseudo switch whose queues model sending NICs — gets its
// stores like any other, so every record of the stream is owned by
// exactly one store.
func New(plan *compiler.Plan, t *topo.Topology, cfg Config) (*Fabric, error) {
	if t == nil {
		return nil, fmt.Errorf("fabric: nil topology")
	}
	ids := t.SwitchIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("fabric: topology has no queues")
	}
	// The partition table is dense over switch ID, so the router indexes
	// a slice instead of probing a map: a switch's position in ids, -1
	// for IDs outside the topology.
	index := make([]int32, int(slices.Max(ids))+1)
	for i := range index {
		index[i] = -1
	}
	labels := make([]string, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
		// Each switch's series carry its own label — the /debug/perfq
		// per-switch drill-down.
		labels[i] = `switch="` + t.SwitchName(id) + `"`
	}
	cfg.Switch.Partition = &switchsim.Partition{
		Labels: labels,
		Merge:  mergeOf,
		Of: func(rec *trace.Record) int {
			if sw := int(rec.QID.Switch()); sw < len(index) {
				return int(index[sw])
			}
			return -1
		},
	}
	dp, err := switchsim.New(plan, cfg.Switch)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	return &Fabric{engine: dp, topo: t, ids: ids, index: index}, nil
}

// Switches returns the hardware switch IDs hosting a datapath, ascending.
func (f *Fabric) Switches() []uint16 { return f.ids }

// SwitchName names a switch for reports ("leaf0", "hostnic", …).
func (f *Fabric) SwitchName(sw uint16) string { return f.topo.SwitchName(sw) }

// Datapath returns one switch's view of the deployment — Tables,
// Collect, Stats, StoreStats, Accuracy and Packets over that switch's
// stores alone (nil if unknown). Read-only: records are fed to the
// Fabric.
func (f *Fabric) Datapath(sw uint16) *switchsim.Datapath {
	if int(sw) >= len(f.index) || f.index[sw] < 0 {
		return nil
	}
	return f.Partition(int(f.index[sw]))
}

// NetworkTables reconciles the per-switch backing stores into
// network-wide tables for every switch-resident stage (call after Run,
// or Flush first). The result is memoized until the next Flush.
func (f *Fabric) NetworkTables() map[string]*exec.Table { return f.Tables() }

// SwitchTables materializes the full plan from one switch's stores alone
// — the per-switch view of the query (downstream stages evaluated over
// that switch's tables).
func (f *Fabric) SwitchTables(sw uint16) (map[string]*exec.Table, error) {
	dp := f.Datapath(sw)
	if dp == nil {
		return nil, fmt.Errorf("fabric: unknown switch %d", sw)
	}
	return dp.Collect()
}
