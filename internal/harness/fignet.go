package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"perfq"
	"perfq/internal/netsim"
	"perfq/internal/queries"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// NetConfig parameterizes the network-wide loss-localization scenario:
// the fabric-deployment counterpart of the paper's single-switch
// figures. An incast burst through a shallow-buffered leaf-spine fabric
// concentrates drops at one queue; the per-queue loss query runs once as
// a single logical datapath over the merged stream (the pre-fabric
// baseline) and once deployed per switch with collector reconciliation.
type NetConfig struct {
	// Spec is the topology (ParseSpec syntax).
	Spec string
	// BufBytes shrinks queue buffers so the incast drops.
	BufBytes int
	// Senders is the incast fan-in; Flows the background flow count.
	Senders, Flows int
	Seed           int64
	Progress       io.Writer
}

// DefaultNet is the CI-scale scenario (the fabric equivalence suite's
// topology and workload shape).
func DefaultNet() NetConfig {
	return NetConfig{
		Spec: "leafspine:4x2x8", BufBytes: 64 << 10,
		Senders: 16, Flows: 60, Seed: 42,
	}
}

// NetSwitchRow is one switch's share of the network's drops.
type NetSwitchRow struct {
	Switch string
	// Queues is how many of the switch's queues saw traffic; Drops the
	// total packets it dropped.
	Queues, Drops int
}

// NetResult is the scenario's outcome.
type NetResult struct {
	Records  int
	Switches int
	Drops    int
	// PerSwitch is each switch's drop share, descending.
	PerSwitch []NetSwitchRow
	// Hot names the congested queue the fabric localized.
	HotSwitch string
	HotQueue  uint16
	HotDrops  int
	HotRate   float64
	// NetworkRows/BaselineRows compare the fabric's reconciled drop
	// table with the single-datapath baseline over the merged stream;
	// Identical reports whether they agree bit-for-bit (they must: the
	// per-queue key pins each row to one switch).
	NetworkRows, BaselineRows int
	Identical                 bool
	Elapsed                   time.Duration
}

// RunNet executes the scenario.
func RunNet(cfg NetConfig) (*NetResult, error) {
	start := time.Now()
	tp, err := topo.ParseSpec(cfg.Spec, topo.Options{BufBytes: cfg.BufBytes})
	if err != nil {
		return nil, err
	}
	recs, err := netsim.GenWorkload(tp, netsim.Workload{
		Seed: cfg.Seed, Flows: cfg.Flows, IncastSenders: cfg.Senders,
	})
	if err != nil {
		return nil, err
	}
	q := perfq.MustCompile(queries.LossByQueue)

	logf(cfg.Progress, "fignet: %d records over %s, running fabric + baseline…", len(recs), cfg.Spec)
	fab, err := q.Run(perfq.Records(recs), perfq.WithFabric(tp))
	if err != nil {
		return nil, err
	}
	// The "before" side: the pre-fabric runtime — one cached datapath
	// over the merged stream, at the same default total budget the
	// fabric splits across switches.
	base, err := q.Run(perfq.Records(recs))
	if err != nil {
		return nil, err
	}

	res := &NetResult{
		Records:  len(recs),
		Switches: len(tp.SwitchIDs()),
		Elapsed:  time.Since(start),
	}
	for i := range recs {
		if recs[i].Dropped() {
			res.Drops++
		}
	}

	fabR3, baseR3 := fab.Table("R3"), base.Table("R3")
	res.NetworkRows, res.BaselineRows = fabR3.Len(), baseR3.Len()
	res.Identical = tablesIdentical(fabR3, baseR3) &&
		tablesIdentical(fab.Table("R1"), base.Table("R1")) &&
		tablesIdentical(fab.Table("R2"), base.Table("R2"))

	for _, sw := range fab.Switches() {
		s := NetSwitchRow{Switch: fab.SwitchName(sw), Queues: fab.SwitchTable(sw, "R1").Len()}
		for _, row := range fab.SwitchTable(sw, "R3").Rows {
			drops := int(row[2])
			s.Drops += drops
			if drops > res.HotDrops {
				res.HotDrops, res.HotRate = drops, row[1]
				res.HotSwitch, res.HotQueue = s.Switch, trace.QueueID(uint32(int64(row[0]))).Queue()
			}
		}
		res.PerSwitch = append(res.PerSwitch, s)
	}
	sort.Slice(res.PerSwitch, func(i, j int) bool {
		if res.PerSwitch[i].Drops != res.PerSwitch[j].Drops {
			return res.PerSwitch[i].Drops > res.PerSwitch[j].Drops
		}
		return res.PerSwitch[i].Switch < res.PerSwitch[j].Switch
	})
	return res, nil
}

// tablesIdentical compares two tables bit-for-bit.
func tablesIdentical(a, b *perfq.Table) bool {
	if a == nil || b == nil || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if math.Float64bits(a.Rows[i][j]) != math.Float64bits(b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Format renders the scenario in the before/after shape EXPERIMENTS.md
// quotes.
func (r *NetResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Network-wide loss localization (%d records, %d switch datapaths):\n",
		r.Records, r.Switches)
	fmt.Fprintf(w, "  drops in trace:        %d\n", r.Drops)
	fmt.Fprintf(w, "  congested hop:         %s port %d — %d drops at %.1f%% drop rate\n",
		r.HotSwitch, r.HotQueue, r.HotDrops, 100*r.HotRate)
	fmt.Fprintf(w, "  per-switch drop share:")
	for _, s := range r.PerSwitch {
		if s.Drops == 0 {
			continue
		}
		fmt.Fprintf(w, " %s=%d", s.Switch, s.Drops)
	}
	fmt.Fprintln(w)
	agree := "bit-identical"
	if !r.Identical {
		agree = "DIVERGED"
	}
	fmt.Fprintf(w, "  fabric vs single-datapath baseline: %d vs %d drop rows, %s\n",
		r.NetworkRows, r.BaselineRows, agree)
	fmt.Fprintf(w, "  elapsed: %v\n", r.Elapsed.Round(time.Millisecond))
}
