package fabric

import (
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/packet"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// engineSource adapts an unbounded-memory exec engine (one switch's
// sub-stream) to the reconcile's state-source interface. Every key is
// trivially valid: with no cache there are no epochs.
type engineSource struct {
	plan *compiler.Plan
	eng  *exec.Engine
}

func (s engineSource) Keys(pi int) (n int) {
	for _, st := range s.plan.Programs[pi].Members {
		n = max(n, s.eng.GroupLen(st.Name))
	}
	return n
}

func (s engineSource) GatherMember(pi, mi int, g *switchsim.Gather) {
	st := s.plan.Programs[pi].Members[mi]
	s.eng.RangeGroup(st.Name, func(key packet.Key128, keyVals, state []float64) {
		g.Add(key, keyVals, state, true)
	})
}

func (s engineSource) SelectRows(st *compiler.Stage) [][]float64 { return s.eng.SelectRows(st.Name) }

// GroundTruth evaluates the plan the way an infinite-memory fabric
// would: records are demultiplexed to one unbounded exec engine per
// switch, per-switch states are reconciled by the same Reconcile the
// datapath uses (same merge modes, same switch order, same float
// associativity), and downstream stages run over the merged tables. This
// is the reference the fabric equivalence suite compares the cache +
// backing-store fabric against.
func GroundTruth(plan *compiler.Plan, t *topo.Topology, src trace.Source) (map[string]*exec.Table, error) {
	ids := t.SwitchIDs()
	engines := make(map[uint16]*exec.Engine, len(ids))
	srcs := make([]switchsim.StateSource, len(ids))
	for i, id := range ids {
		eng := exec.New(plan)
		engines[id] = eng
		srcs[i] = engineSource{plan: plan, eng: eng}
	}
	err := trace.EachBatch(src, func(recs []trace.Record) error {
		for i := range recs {
			if eng, ok := engines[recs[i].QID.Switch()]; ok {
				eng.ProcessRecord(&recs[i])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tabs, _ := switchsim.Reconcile(plan, srcs, mergeOf)
	eng := exec.New(plan)
	for name, tab := range tabs {
		eng.SetTable(name, tab)
	}
	return eng.Finish()
}
