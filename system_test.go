package perfq

// The whole-system differential: §3.2's claim that a bounded cache plus
// a backing store, merged exactly for folds linear in state, answers as
// unbounded memory would, under any eviction schedule and any layout of
// shards, switches and windows. One uint64 seed draws a query from the
// language's grammar, a trace and a layout. The run is held to exec.Run,
// fabric.GroundTruth or window.GroundTruth by the merge kind each switch
// program compiled to (stageClasses), a key it drops must be one its
// books call invalid, the same layout fed another way must be
// bit-identical, and a pool's books must balance. TestSystemSeeds fails
// when its fixed seeds miss a census case; FuzzSystem explores further.
// A failure names its seed: go test -run 'TestSystemSeeds/^<seed>$' -v .

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"perfq/internal/backing"
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fabric"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/netsim"
	"perfq/internal/obs"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
	"perfq/internal/window"
)

// sysCase is one whole-system case: a query, its trace and a layout.
type sysCase struct {
	name        string // the seed, or a pin's label
	src         string
	recs        []Record
	tp          *topo.Topology // nil: one switch
	shards      int
	pairs, ways int // WithCache
	win         *WindowSpec
	feed        sysFeed // how the reference run is fed
	alt         sysFeed // the invariance run (zero: none)
	pool        bool

	ops map[*compiler.Stage]*stageOps // opsOf's memo
}

// sysFeed is how a run is fed: a source shape cut into runs, or straight
// on a switchsim.Datapath — Process and Feed alternating in runs of
// interleave > 0 records, or (interleave < 0) Run over the slice — at
// GOMAXPROCS procs (1: the inline router; 0: as it is).
type sysFeed struct {
	shape, runLen, interleave, procs int
}

var (
	sysShapes  = []string{"slice", "pqt", "next-only"}
	sysRunLens = []int{0, 1, fold.BlockSize - 1, fold.BlockSize, fold.BlockSize + 1, 512}
	sysKeys    = []string{"5tuple", "srcip", "srcip, dstip", "qid", "srcip, dstip, srcport, dstport, proto, qid"}
	sysFracs   = []string{"0.1", "0.125", "0.5", "0.875"}
)

// genQuery draws query text: 1–3 GROUPBY stages over T with 1–2
// aggregates each (built-ins or generated def folds) and an optional
// WHERE, then an optional select-over-T and an optional collector stage.
func genQuery(rng *rand.Rand) string {
	var defs, stages strings.Builder
	n := 1 + rng.Intn(3)
	join := n >= 2 && rng.Intn(3) == 0
	keys := make([]string, n)
	for i := range keys {
		keys[i] = sysKeys[rng.Intn(len(sysKeys))]
	}
	if join {
		keys[1] = keys[0]
	}
	for i := 0; i < n; i++ {
		var aggs []string
		if (join && i < 2) || rng.Intn(3) == 0 {
			aggs = append(aggs, "COUNT")
		}
		for len(aggs) == 0 || (len(aggs) < 2 && rng.Intn(2) == 0) {
			var agg string
			switch k := rng.Intn(7); {
			case k < 4:
				agg = fmt.Sprintf("%s(%s)", []string{"SUM", "MAX", "MIN", "AVG"}[k],
					[]string{"pkt_len", "qin", "tout - tin", "payload_len"}[rng.Intn(4)])
			default:
				agg = fmt.Sprintf("f%d%d", i+1, len(aggs))
				defs.WriteString(genFold(rng, agg))
			}
			if !slices.Contains(aggs, agg) {
				aggs = append(aggs, agg)
			}
		}
		fmt.Fprintf(&stages, "R%d = SELECT %s GROUPBY %s%s\n", i+1, strings.Join(aggs, ", "), keys[i], genWhere(rng))
	}
	if rng.Intn(4) == 0 {
		stages.WriteString("S = SELECT qid, tin, pkt_len WHERE pkt_len > 1400\n")
	}
	switch {
	case join:
		fmt.Fprintf(&stages, "C = SELECT R2.count / R1.count AS ratio FROM R1 JOIN R2 ON %s\n", keys[0])
	case strings.Contains(stages.String(), "R1 = SELECT COUNT") && rng.Intn(2) == 0:
		stages.WriteString("C = SELECT * FROM R1 WHERE count > 2\n")
	}
	return defs.String() + stages.String()
}

// genWhere draws an optional WHERE clause over T.
func genWhere(rng *rand.Rand) string {
	atoms := []string{"proto == 6", "pkt_len > 200", "qin > 1000", "tout == infinity", "srcport < 40000"}
	atom := func() string { return atoms[rng.Intn(len(atoms))] }
	switch rng.Intn(6) {
	case 0:
		return " WHERE " + atom()
	case 1:
		return " WHERE " + atom() + " and not (" + atom() + ")"
	case 2:
		return " WHERE " + atom() + " or " + atom()
	}
	return ""
}

// genFold draws a def fold of one or two state variables: assignments
// linear in state (integer, fractional and zero coefficients), min/max,
// if/else on a field or on state, and — with two variables — sometimes
// the history shape of Fig. 2's TCP out-of-sequence fold.
func genFold(rng *rand.Rand, name string) string {
	state := []string{"a" + name[1:]}
	if rng.Intn(2) == 0 {
		state = append(state, "b"+name[1:])
	}
	expr := func() string {
		switch rng.Intn(6) {
		case 0:
			return "pkt_len"
		case 1:
			return "qin"
		case 2:
			return "tout - tin"
		case 3:
			return fmt.Sprintf("%d * payload_len", 1+rng.Intn(9))
		case 4:
			return sysFracs[rng.Intn(len(sysFracs))] + " * pkt_len"
		}
		return fmt.Sprintf("pkt_len + %d", rng.Intn(9))
	}
	assign := func(v string) string {
		switch rng.Intn(6) {
		case 0, 1:
			return v + " = " + v + " + " + expr()
		case 2:
			return fmt.Sprintf("%s = %s * %s + %s", v, sysFracs[1+rng.Intn(3)], v, expr())
		case 3:
			return v + " = " + expr()
		case 4:
			return fmt.Sprintf("%s = %s(%s, %s)", v, []string{"min", "max"}[rng.Intn(2)], v, expr())
		}
		return v + " = " + v + " + 1"
	}
	cond := func() string {
		if rng.Intn(3) == 0 {
			return state[rng.Intn(len(state))] + " > 1000"
		}
		return []string{"pkt_len > 500", "proto == 6"}[rng.Intn(2)]
	}
	var body []string
	if len(state) == 2 && rng.Intn(2) == 0 {
		body = append(body, fmt.Sprintf("if %s + 1 != tcpseq:", state[1]), "    "+assign(state[0]),
			state[1]+" = tcpseq + payload_len")
	} else {
		for _, v := range state {
			if rng.Intn(3) > 0 {
				body = append(body, assign(v))
				continue
			}
			body = append(body, "if "+cond()+":", "    "+assign(v))
			if rng.Intn(2) == 0 {
				body = append(body, "else:", "    "+assign(v))
			}
		}
	}
	text := strings.Join(body, "\n    ")
	var fields []string // the fields the body reads, or one
	for _, f := range []string{"pkt_len", "payload_len", "proto", "qin", "tcpseq", "tin", "tout"} {
		if strings.Contains(text, f) {
			fields = append(fields, f)
		}
	}
	if fields == nil {
		fields = []string{"pkt_len"}
	}
	tuple := func(xs []string) string {
		if len(xs) == 1 {
			return xs[0]
		}
		return "(" + strings.Join(xs, ", ") + ")"
	}
	return fmt.Sprintf("def %s(%s, %s):\n    %s\n", name, tuple(state), tuple(fields), text)
}

// drawCase draws one case from a seed.
func drawCase(t *testing.T, seed uint64) *sysCase {
	rng := rand.New(rand.NewSource(int64(seed)))
	c := &sysCase{name: fmt.Sprint(seed), src: genQuery(rng), shards: 1 + rng.Intn(4)}
	procs := []int{1, 4}[rng.Intn(2)]
	var err error
	if rng.Intn(4) == 0 {
		c.tp = topo.LeafSpine(2, 2, 4, topo.Options{})
		c.recs, err = netsim.GenWorkload(c.tp, netsim.Workload{Seed: int64(seed), Flows: 20 + rng.Intn(40)})
	} else {
		cfg := tracegen.DCConfig(int64(seed), 2*time.Second)
		if rng.Intn(2) == 0 {
			cfg = tracegen.WANConfig(int64(seed), 2*time.Second)
		}
		cfg.MaxPackets = int64(1500 + rng.Intn(3000))
		if c.shards == 1 {
			cfg.MaxPackets *= 4 // fed as one slice, below
		}
		c.recs, err = trace.Collect(tracegen.New(cfg))
	}
	if err != nil {
		t.Fatal(err)
	}
	c.pairs, c.ways = 1<<(4+rng.Intn(11)), []int{1, 8, 0}[rng.Intn(3)]
	if k := int64(2 + rng.Intn(5)); rng.Intn(3) > 0 {
		c.win = &WindowSpec{Carry: rng.Intn(2) == 0, Keep: 1 << 20}
		if rng.Intn(2) == 0 {
			c.win.Count = int64(len(c.recs))/k + 1
		} else {
			span := c.recs[len(c.recs)-1].Tin - c.recs[0].Tin
			c.win.Interval = time.Duration(span/k + 1)
			if rng.Intn(2) == 0 {
				// A gap of three intervals: at least two empty windows.
				for i := len(c.recs) / 2; i < len(c.recs); i++ {
					c.recs[i].Tin += 3 * int64(c.win.Interval)
					if !c.recs[i].Dropped() {
						c.recs[i].Tout += 3 * int64(c.win.Interval)
					}
				}
			}
		}
	}
	feed := func() sysFeed {
		return sysFeed{shape: rng.Intn(len(sysShapes)), runLen: sysRunLens[rng.Intn(len(sysRunLens))], procs: procs}
	}
	c.feed, c.alt = feed(), feed()
	if c.shards == 1 && c.tp == nil {
		// A single unpartitioned shard draws a trace four times longer
		// and feeds it as one slice: runs long enough that a plan of two
		// or more programs splits into program sets when procs allows.
		c.feed.shape, c.feed.runLen = 0, 0
	}
	switch rng.Intn(3) {
	case 0:
		c.alt.procs = 5 - procs
	case 1:
		if c.win == nil && c.tp == nil {
			c.alt = sysFeed{interleave: sysRunLens[1+rng.Intn(4)], procs: procs}
		}
	}
	c.pool = rng.Intn(6) == 0
	return c
}

func (c *sysCase) String() string {
	return fmt.Sprintf("%q over %d records, fabric %v, shards %d, cache %d×%d, window %+v, feed %+v, alt %+v, pool %v",
		c.src, len(c.recs), c.tp != nil, c.shards, c.pairs, c.ways, c.win, c.feed, c.alt, c.pool)
}

func (c *sysCase) options() []RunOption {
	opts := []RunOption{WithCache(c.pairs, c.ways), WithShards(c.shards)}
	if c.tp != nil {
		opts = append(opts, WithFabric(c.tp))
	}
	if c.win != nil {
		opts = append(opts, WithWindow(*c.win))
	}
	return opts
}

// sysRun is what one run leaves that a caller can observe: per window
// (one, unwindowed) its tables and per-program accuracy, the whole-run
// eviction counts and, from a datapath fed directly, per-program cache
// and store statistics.
type sysRun struct {
	wins               []sysWin
	evictions, flushed uint64
	accs               [][2]int
	stats              []kvstore.Stats
	stores             []backing.Stats
	split              bool // the datapath journaled a program-sets split
}

type sysWin struct {
	tables map[string]*exec.Table
	accs   [][2]int
	w      *WindowResult // nil: unwindowed
}

func accsOf(n int, acc func(int) (int, int)) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i][0], out[i][1] = acc(i)
	}
	return out
}

// run feeds the case's records to q as f says, with pool attached when
// non-nil. An interleaved feed makes staged records drain before a Feed's
// slice runs.
func (c *sysCase) run(t *testing.T, q *Query, f sysFeed, pool *BackingPool) (out sysRun) {
	n := len(q.plan.Programs)
	jr := obs.NewJournal(64)
	defer func() {
		out.split = slices.ContainsFunc(jr.Tail(64), func(ev obs.Event) bool { return ev.Kind == obs.EvProgramSets })
	}()
	atProcs(f.procs, func() {
		if k := f.interleave; k != 0 {
			var rc runConfig
			for _, o := range c.options() {
				o(&rc)
			}
			rc.sw.Journal = jr
			dp, err := switchsim.New(q.plan, rc.sw)
			if err != nil {
				t.Fatal(err)
			}
			for lo, byProcess := 0, true; k > 0 && lo < len(c.recs); lo, byProcess = lo+k, !byProcess {
				run := c.recs[lo:min(lo+k, len(c.recs))]
				for i := 0; byProcess && i < len(run); i++ {
					dp.Process(&run[i])
				}
				if !byProcess {
					dp.Feed(run)
				}
			}
			if k > 0 {
				dp.EndFeed()
				dp.Flush()
			} else if err := dp.Run(Records(c.recs)); err != nil {
				t.Fatal(err)
			}
			tabs, err := dp.Collect()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range dp.Stats() {
				out.evictions, out.flushed = out.evictions+s.Evictions, out.flushed+s.Flushed
			}
			out.accs, out.stats, out.stores = accsOf(n, dp.Accuracy), dp.Stats(), dp.StoreStats()
			out.wins = []sysWin{{tables: tabs, accs: out.accs}}
			return
		}
		src := []Source{Records(c.recs), pqtSource(t, c.recs), nextOnly{src: Records(c.recs)}}[f.shape]
		if f.runLen > 0 {
			src = &rebatch{bs: trace.Batches(src), n: f.runLen}
		}
		opts := append(c.options(), func(rc *runConfig) { rc.journal = jr })
		if pool != nil {
			opts = append(opts, WithBackingPool(pool))
		}
		var res *Results
		var err error
		if c.win == nil {
			res, err = q.Run(src, opts...)
		} else {
			res, err = q.Stream(src, func(w *WindowResult) error {
				out.wins = append(out.wins, sysWin{w.tables, accsOf(n, w.Accuracy), w})
				return nil
			}, opts...)
		}
		if err != nil {
			t.Fatalf("case %s: %v", c.name, err)
		}
		out.evictions, out.flushed, out.accs = res.Evictions, res.Flushed, accsOf(n, res.Accuracy)
		if c.win == nil {
			out.wins = []sysWin{{tables: res.tables, accs: out.accs}}
		}
	})
	return out
}

// reference evaluates the plan with unbounded memory under the case's
// window schedule (unwindowed: one window of every record), over tp's
// switches (nil: one datapath).
func (c *sysCase) reference(t *testing.T, plan *compiler.Plan, tp *topo.Topology) []map[string]*exec.Table {
	spec := window.Spec{Count: int64(len(c.recs)) + 1}
	if c.win != nil {
		spec = window.Spec{Count: c.win.Count, IntervalNs: int64(c.win.Interval), Carry: c.win.Carry}
	}
	refs, err := window.GroundTruth(plan, tp, c.recs, spec)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// The oracle's classes.
const (
	clsExact    = "bit-identical"
	clsRounding = "rounding"
	clsEpochs   = "epochs" // a by-key subset, bit-exact where present
)

// stageClasses classes every stage of plan; split reports whether the
// run cut some key's state into more than one epoch. Bit-identical:
// select-over-T mirrors, MergeAssoc, any kind unsplit, and linear folds
// whose merges stay in float64's integers. Other linear folds round
// (within 1e-12 of max(opScale, |want|)); MergeNone keeps a by-key
// subset, bit-exact where present. NaN matches NaN. A collector stage is
// compared ("bit-identical") only when all its inputs are; otherwise it
// is left out ("").
func (c *sysCase) stageClasses(plan *compiler.Plan, split bool) map[*compiler.Stage]string {
	out := map[*compiler.Stage]string{}
	for _, st := range plan.Stages {
		f := st.Fold
		switch {
		case !st.OnSwitch:
			out[st] = clsExact
			for _, in := range []*compiler.Stage{st.Input, st.Left, st.Right} {
				if in != nil && out[in] != clsExact {
					out[st] = ""
				}
			}
		case f.Merge == fold.MergeAssoc || !split || f.Merge == fold.MergeLinear && integerMerge(f.Linear) && !c.opsOf(st).sentinel:
			out[st] = clsExact
		case f.Merge == fold.MergeLinear:
			out[st] = clsRounding
		default:
			out[st] = clsEpochs
		}
	}
	return out
}

// integerMerge reports whether every entry of A and B is integer-valued,
// so P and every merge stay exact while values stay below 2^53 (the drop
// sentinel does not: stageOps): integer constants, fields and history
// state through +, −, comparisons, logic, min/max/abs and products with
// one small constant factor.
func integerMerge(ls *fold.LinearSpec) bool {
	var all func(es []fold.Expr) bool
	integer := func(e fold.Expr) bool {
		switch e := e.(type) {
		case nil, fold.StateRef, fold.Not, fold.FieldRef:
			return true
		case fold.Const:
			return float64(e) == math.Trunc(float64(e))
		case fold.Neg:
			return all([]fold.Expr{e.X})
		case fold.CondExpr:
			return all([]fold.Expr{e.T, e.E})
		case fold.Call:
			return all(e.Args)
		case fold.Bin:
			switch e.Op {
			case fold.OpAdd, fold.OpSub:
				return all([]fold.Expr{e.L, e.R})
			case fold.OpMul:
				k, ok := e.L.(fold.Const)
				if !ok {
					k, ok = e.R.(fold.Const)
				}
				return ok && math.Abs(float64(k)) <= 1<<10 && all([]fold.Expr{e.L, e.R})
			case fold.OpDiv:
				return false
			}
			return true // comparisons and logic: 0 or 1
		}
		return false
	}
	all = func(es []fold.Expr) bool {
		return !slices.ContainsFunc(es, func(e fold.Expr) bool { return !integer(e) })
	}
	ok := all(ls.B)
	for _, row := range ls.A {
		ok = ok && all(row)
	}
	return ok
}

// stageOps is what a switch stage's fold read over the case's records,
// its WHERE aside: for a Reassociated fold, per key (keyOf its row's key
// columns), the largest field it reads, the drop sentinel aside; and
// whether a key of two or more records read that sentinel (a dropped
// record's tout, 2^63 − 1). A key of one record lives in one epoch.
type stageOps struct {
	scale    map[string]float64
	sentinel bool
}

func (c *sysCase) opsOf(st *compiler.Stage) *stageOps {
	if ops := c.ops[st]; ops != nil {
		return ops
	}
	ops := &stageOps{scale: map[string]float64{}}
	mask, reassoc := st.Program.Fold.Code.FieldMask(), st.Fold.Linear.Reassociated
	readsTout := mask&(1<<trace.FieldTout) != 0
	n, dropped, key := map[string]int{}, map[string]bool{}, make([]float64, len(st.Key.Fields))
	for i := 0; (reassoc || readsTout) && i < len(c.recs); i++ {
		r := &c.recs[i]
		for j, f := range st.Key.Fields {
			key[j] = float64(r.Field(f))
		}
		k := keyOf(key)
		n[k]++
		dropped[k] = dropped[k] || readsTout && r.Dropped()
		ops.sentinel = ops.sentinel || n[k] > 1 && dropped[k]
		for f := trace.FieldID(0); reassoc && int(f) < trace.NumFields; f++ {
			if mask&(1<<f) != 0 && !(f == trace.FieldTout && r.Dropped()) {
				ops.scale[k] = math.Max(ops.scale[k], math.Abs(float64(r.Field(f))))
			}
		}
	}
	if c.ops == nil {
		c.ops = map[*compiler.Stage]*stageOps{}
	}
	c.ops[st] = ops
	return ops
}

// keyOf is a map key for a row's key values, bit for bit.
func keyOf(vals []float64) string {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// opScale is what the rounding class's bound on a row of st is relative
// to besides |want|: 1, or for a Reassociated fold the largest field the
// row's key read (stageOps). Such a body rounds at its operands' scale
// before it cancels — (s + tout) − tin rounds at tout however small the
// result — so an epoch split moves its value by that scale's last bits.
func (c *sysCase) opScale(st *compiler.Stage) func(row []float64) float64 {
	if !st.Fold.Linear.Reassociated {
		return nil
	}
	ops, nk := c.opsOf(st), st.NumKeyCols()
	return func(row []float64) float64 { return max(1, ops.scale[keyOf(row[:nk])]) }
}

// diffRows returns the first difference between got and want, row by
// row, each value within rel of max(scale(row), |want|) (rel 0:
// bit-identical; scale nil: 1), or "".
func diffRows(got, want *exec.Table, rel float64, scale func(row []float64) float64) string {
	if got == nil || len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(rowsOf(got)), len(want.Rows))
	}
	for i, wr := range want.Rows {
		sc := 1.0
		if scale != nil && rel > 0 {
			sc = scale(wr)
		}
		for j, w := range wr {
			if g := got.Rows[i][j]; !bitsEq(g, w) && !(math.Abs(g-w) <= rel*math.Max(sc, math.Abs(w))) {
				return fmt.Sprintf("row %d col %s: %v, want %v", i, want.Schema[j], g, w)
			}
		}
	}
	return ""
}

// rowsOf reads a missing table as empty.
func rowsOf(tab *exec.Table) [][]float64 {
	if tab == nil {
		return nil
	}
	return tab.Rows
}

// diffSubset returns the first row of got that is not, bit for bit, the
// row of want with its nk-column key, or "".
func diffSubset(got, want *exec.Table, nk int) string {
	index := map[string][]float64{}
	for _, row := range want.Rows {
		index[fmt.Sprint(row[:nk])] = row
	}
	for _, row := range rowsOf(got) {
		wr, ok := index[fmt.Sprint(row[:nk])]
		if !ok {
			return fmt.Sprintf("key %v absent from the reference", row[:nk])
		}
		for j := range row {
			if !bitsEq(row[j], wr[j]) {
				return fmt.Sprintf("key %v col %s: %v, want %v", row[:nk], want.Schema[j], row[j], wr[j])
			}
		}
	}
	return ""
}

// check holds run to refs under the oracle's classes, counting what it
// reached into cen (nil: not counted).
func (c *sysCase) check(t *testing.T, plan *compiler.Plan, run sysRun, refs []map[string]*exec.Table, classes map[*compiler.Stage]string, cen sysCensus) {
	if len(run.wins) != len(refs) {
		t.Fatalf("case %s: %d windows, reference has %d", c.name, len(run.wins), len(refs))
	}
	for wi, w := range run.wins {
		if w := w.w; w != nil && (w.Index != int64(wi) || c.win.Interval > 0 && w.End-w.Start != c.win.Interval ||
			c.win.Carry && wi > 0 && w.TotalKeys < run.wins[wi-1].w.TotalKeys) {
			t.Fatalf("case %s: window %d is %+v: off the schedule, or a carry-over window lost keys", c.name, wi, *w)
		}
		for _, st := range plan.Stages {
			got, want := w.tables[st.Name], refs[wi][st.Name]
			var diff string
			switch classes[st] {
			case clsExact:
				diff = diffRows(got, want, 0, nil)
				cen.add(!st.OnSwitch && (st.Input != nil || st.Left != nil), "collector-stage")
			case clsRounding:
				diff = diffRows(got, want, 1e-12, c.opScale(st))
				cen.add(run.evictions > 0, "rounding-under-eviction")
			case clsEpochs:
				diff = diffSubset(got, want, st.NumKeyCols())
			}
			// A key the run drops is a key its books call invalid.
			if sp := st.Program; diff == "" && st.OnSwitch && len(sp.Members) == 1 && (c.tp == nil || fabric.ModeOf(st) != fabric.ModeEpoch) {
				p := slices.Index(plan.Programs, sp)
				missing, invalid := len(want.Rows)-len(rowsOf(got)), w.accs[p][1]-w.accs[p][0]
				if missing != invalid {
					diff = fmt.Sprintf("%d reference keys missing, the books call %d invalid", missing, invalid)
				}
				cen.add(missing > 0, "invalid-keys-accounted")
			}
			if diff != "" {
				t.Fatalf("case %s: window %d, stage %s (%s): %s", c.name, wi, st.Name, classes[st], diff)
			}
		}
	}
}

// requireSameRun holds two runs of one layout to each other, bit for bit.
func requireSameRun(t *testing.T, label string, got, want sysRun) {
	t.Helper()
	if got.evictions != want.evictions || got.flushed != want.flushed || !slices.Equal(got.accs, want.accs) || len(got.wins) != len(want.wins) ||
		want.stats != nil && (!slices.Equal(got.stats, want.stats) || !slices.Equal(got.stores, want.stores)) {
		t.Fatalf("%s: evictions/flushed %d/%d accuracy %v, %d windows, stats %+v %+v; want %d/%d %v, %d windows, stats %+v %+v", label,
			got.evictions, got.flushed, got.accs, len(got.wins), got.stats, got.stores,
			want.evictions, want.flushed, want.accs, len(want.wins), want.stats, want.stores)
	}
	for k, ww := range want.wins {
		gw := got.wins[k]
		meta := func(w *WindowResult) []int64 {
			if w == nil {
				return nil
			}
			return []int64{w.Index, w.Records, int64(w.Start), int64(w.End), int64(w.Evictions), int64(w.WindowValidKeys), int64(w.WindowTotalKeys)}
		}
		if !slices.Equal(gw.accs, ww.accs) || !slices.Equal(meta(gw.w), meta(ww.w)) {
			t.Fatalf("%s: window %d: accuracy %v %v, want %v %v", label, k, gw.accs, meta(gw.w), ww.accs, meta(ww.w))
		}
		for name, wt := range ww.tables {
			if diff := diffRows(gw.tables[name], wt, 0, nil); diff != "" {
				t.Fatalf("%s: window %d, stage %s: %s", label, k, name, diff)
			}
		}
	}
}

// rebatch re-cuts a source's own runs into runs of at most n records:
// the differential's handle on run length, which is deliberately not a
// knob of the library. Drivers must never fall back to pulling it one
// record at a time.
type rebatch struct {
	bs   trace.BatchSource
	n    int
	pend []Record
}

func (r *rebatch) Next(*Record) error { panic("driver pulled a batch source record by record") }

func (r *rebatch) NextBatch() ([]Record, error) {
	if len(r.pend) == 0 {
		recs, err := r.bs.NextBatch()
		if err != nil {
			return nil, err
		}
		r.pend = recs
	}
	k := min(r.n, len(r.pend))
	run := r.pend[:k]
	r.pend = r.pend[k:]
	return run, nil
}

// sysCensus counts the cases the fixed seeds reached; nil counts nothing.
type sysCensus map[string]int

func (cen sysCensus) add(cond bool, name string) {
	if cen != nil && cond {
		cen[name]++
	}
}

// sysCensusCases must each be reached by TestSystemSeeds' fixed seeds.
// The class/ rows count seeds whose run evicted under that merge class.
var sysCensusCases = []string{
	"class/linear-exact", "class/linear-rounding", "class/history", "class/assoc", "class/none",
	"rounding-under-eviction", "invalid-keys-accounted", "collector-stage", "fabric-global",
	"evict-in-tumbling-window", "invalid-under-carry", "empty-interval-window", "held-settled", "held-dropped",
	"multi-owner-lane", "digest-key", "shards-in-fabric", "inline-router", "interleave", "interleave-sharded", "pool",
	"shape/slice", "shape/pqt", "shape/next-only",
	"run/0", "run/1", "run/63", "run/64", "run/65", "run/512", "program-sets",
}

// What a pin expects of a run's capacity evictions.
const (
	churnAny = iota
	churnSome
	churnNone
)

// runSystemCase compiles and runs one case, holds it to its references
// and its invariance run, and settles a pool's books when one is drawn.
func runSystemCase(t *testing.T, c *sysCase, churn int, cen sysCensus) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("case %s is %v", c.name, c)
		}
	})
	q, err := Compile(c.src)
	if err != nil {
		t.Fatalf("case %s: %v", c.name, err)
	}
	requireRunnablePlan(t, q.plan, c.recs[:min(len(c.recs), 256)])
	var pool *BackingPool
	if c.pool {
		cluster, err := q.ServeBackingStores(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cluster.Close() })
		if pool, err = q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
	}
	run := c.run(t, q, c.feed, pool)
	refs := c.reference(t, q.plan, c.tp)
	c.check(t, q.plan, run, refs, c.stageClasses(q.plan, run.evictions > 0 || c.win != nil && c.win.Carry), cen)
	maxRows := 0
	for _, ref := range refs {
		for _, sp := range q.plan.Programs {
			maxRows = max(maxRows, len(ref[sp.Members[0].Name].Rows))
		}
	}
	if churn == churnSome && run.evictions == 0 && maxRows > c.pairs || churn == churnNone && run.evictions != 0 {
		t.Fatalf("case %s: %d evictions for up to %d keys in %d pairs; trace/cache sizing broken", c.name, run.evictions, maxRows, c.pairs)
	}
	if c.tp != nil && fabric.NetworkExact(q.plan) && !slices.ContainsFunc(c.recs, func(r Record) bool { return r.Dropped() }) {
		c.check(t, q.plan, run, c.reference(t, q.plan, nil), c.stageClasses(q.plan, true), nil)
		cen.add(true, "fabric-global")
	}
	if c.alt != (sysFeed{}) {
		// program-sets: a run split into program sets held bit for bit to
		// one that was not (interleaved runs are too short to split).
		alt := c.run(t, q, c.alt, nil)
		requireSameRun(t, fmt.Sprintf("case %s, alt feed %+v", c.name, c.alt), alt, run)
		cen.add(alt.split != run.split, "program-sets")
		if c.alt.interleave > 0 { // and its cache and store statistics, which only a datapath reports
			whole := c.run(t, q, sysFeed{interleave: -1, procs: c.feed.procs}, nil)
			requireSameRun(t, fmt.Sprintf("case %s, alt feed %+v vs Run", c.name, c.alt), alt, whole)
			cen.add(whole.split, "program-sets")
		}
	}
	if pool != nil {
		if err := pool.Sync(); err != nil {
			t.Fatal(err)
		}
		var applied uint64
		for p := 0; p < pool.Programs(); p++ {
			for _, bs := range pool.StatsFor(p) {
				applied += bs.Server.Applied()
			}
		}
		if d := pool.DroppedEvictions(); d != 0 || applied != run.evictions+run.flushed {
			t.Fatalf("case %s: pool dropped %d, applied %d of %d evictions + %d flushed", c.name, d, applied, run.evictions, run.flushed)
		}
	}
	if cen != nil {
		c.count(q.plan, run, cen)
	}
}

// count adds what a checked case reached to the census.
func (c *sysCase) count(plan *compiler.Plan, run sysRun, cen sysCensus) {
	keys := map[string]bool{}
	for _, sp := range plan.Programs {
		f, cls := sp.Fold, "class/"+sp.Fold.Merge.String()
		switch {
		case f.Merge == fold.MergeLinear && f.Linear.NeedsFirstPacket:
			cls = "class/history"
		case f.Merge == fold.MergeLinear && integerMerge(f.Linear) && !c.opsOf(sp.Members[0]).sentinel:
			cls = "class/linear-exact"
		case f.Merge == fold.MergeLinear:
			cls = "class/linear-rounding"
		}
		keys[cls] = true
		keys[fmt.Sprint(sp.Key.Fields)] = true
		cen.add(!sp.Key.Packed, "digest-key")
	}
	groups := 0
	for k := range keys {
		cen.add(run.evictions > 0 && strings.HasPrefix(k, "class/"), k)
		if !strings.HasPrefix(k, "class/") {
			groups++
		}
	}
	cen.add(c.shards > 1 && groups > 1, "multi-owner-lane")
	cen.add(c.shards > 1 && c.tp != nil, "shards-in-fabric")
	cen.add(c.pool, "pool")
	for _, f := range []sysFeed{c.feed, c.alt} {
		cen.add((c.shards > 1 || c.tp != nil) && f.procs == 1, "inline-router")
		cen.add(f.interleave > 0, "interleave")
		cen.add(f.interleave > 0 && c.shards > 1 && run.evictions > 0, "interleave-sharded")
		if f.interleave == 0 && f != (sysFeed{}) {
			cen.add(true, "shape/"+sysShapes[f.shape])
			cen.add(true, fmt.Sprint("run/", f.runLen))
		}
	}
	for i, sw := range run.wins {
		w, last := sw.w, i == len(run.wins)-1
		if w == nil {
			break
		}
		cen.add(!c.win.Carry && w.Evictions > 0, "evict-in-tumbling-window")
		cen.add(c.win.Carry && w.TotalKeys > w.ValidKeys, "invalid-under-carry")
		cen.add(c.win.Interval > 0 && w.Records == 0, "empty-interval-window")
		// A window whose keys outnumber its capacity evictions flushed a
		// key its stores had not seen: held back beside the index, then
		// dropped by the tumbling reset or settled in a later window.
		cen.add(!last && !c.win.Carry && w.TotalKeys > int(w.Evictions), "held-dropped")
		cen.add(!last && c.win.Carry && w.WindowTotalKeys > int(w.Evictions) && run.wins[i+1].w.Records > 0, "held-settled")
	}
}

// sysSeeds is how many seeds TestSystemSeeds runs: enough to reach every
// census case (seed 43 is a re-associated body the cache once ran as a·s
// + b). sysPinned failed past them: 671 rounds at tout's scale (opScale).
const sysSeeds = 80

var sysPinned = []uint64{671}

// TestSystemSeeds runs the whole-system differential on fixed seeds and
// fails when between them they miss a census case. -v prints the census
// and, per merge class, the share of seeds whose run evicted under it.
func TestSystemSeeds(t *testing.T) {
	seeds := slices.Clone(sysPinned)
	for seed := uint64(1); seed <= sysSeeds; seed++ {
		seeds = append(seeds, seed)
	}
	cen, ran := sysCensus{}, 0
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ran++
			runSystemCase(t, drawCase(t, seed), churnAny, cen)
		})
	}
	if ran < len(seeds) {
		return // -run picked some seeds: no census
	}
	var names []string
	for name := range cen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		share := ""
		if strings.HasPrefix(name, "class/") {
			share = fmt.Sprintf("  %3.0f%% of seeds", 100*float64(cen[name])/float64(len(seeds)))
		}
		t.Logf("census %-26s %4d%s", name, cen[name], share)
	}
	for _, name := range sysCensusCases {
		if cen[name] == 0 {
			t.Errorf("fixed seeds missed census case %s", name)
		}
	}
}

// FuzzSystem explores seeds beyond the fixed ones.
func FuzzSystem(f *testing.F) {
	for _, seed := range sysPinned {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { runSystemCase(t, drawCase(t, seed), churnAny, nil) })
}

// fig2Pins holds the Figure 2 queries keep selects (nil: all), fed recs
// under one layout, to the oracle, one subtest each: the paper's seven
// queries stay pinned by name whatever the generator draws.
func fig2Pins(t *testing.T, recs []Record, layout sysCase, churn int, keep func(*queries.Example) bool) {
	for _, ex := range queries.Fig2 {
		if keep != nil && !keep(&ex) {
			continue
		}
		t.Run(ex.Name, func(t *testing.T) {
			c := layout
			c.name, c.src, c.recs = ex.Name, ex.Source, recs
			runSystemCase(t, &c, churn, nil)
		})
	}
}
