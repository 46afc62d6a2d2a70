package switchsim

import (
	"encoding/binary"
	"slices"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/packet"
)

// This file is the one materializer: every table of a switch-resident
// stage — a shard's, a datapath's, a switch's view, the fabric's
// network-wide result, the fabric ground truth — is a reconcile over
// state sources. Per group stage: gather every source's keys, sort by
// packed key with ties in source order, reduce each run of equal keys
// into one state, and project it into a row carved from the table's
// slab. Shards of one partition hold disjoint keys, so an unpartitioned
// datapath never finds a run longer than one: the reduce is a no-op and
// each row is projected straight from the gather. Sources of different
// partitions can share a key, and how their states combine is the
// caller's merge (the fabric's merge-mode table, see internal/fabric).

// StateSource is one store's worth of per-member state: a shard of a
// datapath, or an unbounded exec engine standing in for one (ground
// truth).
type StateSource interface {
	// Keys bounds how many keys GatherMember adds for a member of program
	// pi.
	Keys(pi int) int
	// GatherMember adds every key of program pi's member mi to g once, in
	// any order (see Gather.Add). Keys the member never saw are skipped.
	GatherMember(pi, mi int, g *Gather)
	// SelectRows returns the mirrored rows of a select-over-T stage (a
	// multiset; Reconcile sorts after concatenating).
	SelectRows(st *compiler.Stage) [][]float64
}

// Keys implements StateSource.
func (sh *shardState) Keys(pi int) int { return sh.progs[pi].store.Len() }

// GatherMember implements StateSource: the shard's backing-store entries
// read by index, a window close's one pass over them.
func (sh *shardState) GatherMember(pi, mi int, g *Gather) {
	ps := sh.progs[pi]
	sp := ps.sp
	m := sp.Members[mi].Fold.StateLen()
	off, pidx := sp.Offsets[mi], sp.PresIdx[mi]
	for i, n := 0, ps.store.Len(); i < n; i++ {
		key, state, valid := ps.store.At(i)
		if valid {
			if pidx >= 0 && state[pidx] <= 0 {
				continue // no record of this member's query saw the key
			}
			state = state[off : off+m]
		}
		var kv []float64
		if ps.keyVals != nil {
			kv = ps.keyVals[key]
		}
		g.Add(key, kv, state, valid)
	}
}

// SelectRows implements StateSource.
func (sh *shardState) SelectRows(st *compiler.Stage) [][]float64 {
	return sh.selRows[slices.Index(sh.selStgs, st)]
}

// Reconcile materializes every switch-resident stage of the plan from
// srcs, returning the tables and, per program, how many keys were
// emitted out of how many were seen (Acc.Valid / Acc.Total, summed over
// the program's members).
//
// Select-over-T stages are per-record mirrors and every record is owned
// by exactly one source, so their table is the concatenation, sorted —
// exact for every query. Group stages reduce the sources' states per
// key. merge == nil promises that no two sources hold the same key.
// Otherwise merge(st) is how two sources' states for one key of stage st
// combine (dst ← dst ⊕ src, applied in srcs order, so float association
// order is the caller's source order), or nil if they cannot: such a key
// is dropped and counted against accuracy, as is a key any source holds
// an untrustworthy value for.
func Reconcile(plan *compiler.Plan, srcs []StateSource, merge func(*compiler.Stage) func(dst, src []float64)) (map[string]*exec.Table, []Acc) {
	return reconcile(plan, srcs, merge, &Gather{})
}

func reconcile(plan *compiler.Plan, srcs []StateSource, merge func(*compiler.Stage) func(dst, src []float64), g *Gather) (map[string]*exec.Table, []Acc) {
	out := map[string]*exec.Table{}
	acc := make([]Acc, len(plan.Programs))
	for _, st := range plan.Stages {
		if st.Kind == compiler.KindSelect && st.Input == nil {
			var rows [][]float64
			for _, s := range srcs {
				rows = append(rows, s.SelectRows(st)...)
			}
			t := &exec.Table{Schema: st.Schema, Rows: rows}
			t.Sort()
			out[st.Name] = t
		}
	}
	for pi, sp := range plan.Programs {
		total := 0
		for _, s := range srcs {
			total += s.Keys(pi)
		}
		for mi, st := range sp.Members {
			var reduce func(dst, src []float64)
			if merge != nil {
				reduce = merge(st)
			}
			t, keys := g.member(sp, pi, mi, srcs, total, merge != nil, reduce)
			acc[pi].Valid += len(t.Rows)
			acc[pi].Total += keys
			out[st.Name] = t
		}
	}
	return out, acc
}

// keyedRef is the 24-byte sort element: the packed key's two words
// (big-endian, so word order is byte order) and the gathered key's index
// (rows are picked up once afterwards, so swaps move 24 bytes, not row
// headers). The index is unique, which makes the three words a total
// order: key, then gather — that is, source — order.
type keyedRef struct{ k0, k1, idx uint64 }

func refOf(key packet.Key128, idx int) keyedRef {
	return keyedRef{binary.BigEndian.Uint64(key[0:8]), binary.BigEndian.Uint64(key[8:16]), uint64(idx)}
}

func (a keyedRef) sameKey(b keyedRef) bool { return a.k0 == b.k0 && a.k1 == b.k1 }

func (a keyedRef) less(b keyedRef) bool {
	if a.k0 != b.k0 {
		return a.k0 < b.k0
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.idx < b.idx
}

// word is the ref as three words, most significant first (a switch, not
// an array: a ref in flight stays in registers).
func (a keyedRef) word(w int) uint64 {
	switch w {
	case 0:
		return a.k0
	case 1:
		return a.k1
	}
	return a.idx
}

// radixCutoff is the bucket size insertion sort finishes: a counting
// pass costs 256 counters however few refs it spreads.
const radixCutoff = 32

// sortRefs orders refs in place by an MSD byte radix (American flag)
// sort over the byte positions at which they actually differ — packed
// keys leave trailing bytes zero and flows share prefixes, so one
// OR-of-XOR pass skips most of the 24. There is exactly one sorted
// sequence of a total order, so this unstable sort yields the rows a
// stable one would; refs of one key held by several sources fall through
// to the index bytes. DESIGN.md "The radix order" has the argument.
func sortRefs(refs []keyedRef) {
	var diff keyedRef
	for i := range refs {
		diff.k0 |= refs[i].k0 ^ refs[0].k0
		diff.k1 |= refs[i].k1 ^ refs[0].k1
		diff.idx |= refs[i].idx ^ refs[0].idx
	}
	radixRefs(refs, diff, 0)
}

// radixRefs sorts refs that agree on every byte before position pos (of
// 24, most significant first). It recurses at most once per position and
// each level is linear, so no input — one bucket holding all but a few
// refs included — goes quadratic.
func radixRefs(refs []keyedRef, diff keyedRef, pos int) {
	for ; len(refs) > radixCutoff && pos < 24; pos++ {
		w, sh := pos>>3, uint(56-pos&7<<3)
		if uint8(diff.word(w)>>sh) == 0 {
			continue // no two refs differ here
		}
		var count [256]int32
		for i := range refs {
			count[uint8(refs[i].word(w)>>sh)]++
		}
		// next[b] is where bucket b's next ref goes, end[b] where the
		// bucket ends. Each misplaced ref is carried to its bucket, the ref
		// it displaces carried on in turn, until one lands here.
		var next, end [256]int32
		at := int32(0)
		for b, n := range count {
			next[b] = at
			at += n
			end[b] = at
		}
		for b := range next {
			for ; next[b] < end[b]; next[b]++ {
				r := refs[next[b]]
				for to := uint8(r.word(w) >> sh); int(to) != b; to = uint8(r.word(w) >> sh) {
					r, refs[next[to]] = refs[next[to]], r
					next[to]++
				}
				refs[next[b]] = r
			}
		}
		lo := int32(0)
		for _, hi := range end {
			if hi-lo > 1 {
				radixRefs(refs[lo:hi], diff, pos+1)
			}
			lo = hi
		}
		return
	}
	for i := 1; i < len(refs); i++ {
		r, j := refs[i], i
		for ; j > 0 && r.less(refs[j-1]); j-- {
			refs[j] = refs[j-1]
		}
		refs[j] = r
	}
}

// nonNegative reports whether a packed key's byte order is its row
// order: packed keys are big-endian per component, so byte order equals
// the float-lexicographic order Table.Sort produces as long as every
// component is non-negative (two's-complement bytes would order
// negatives last). Rows then sort by the two key words — two integer
// compares per comparison instead of a column walk.
func nonNegative(kv []float64) bool {
	for _, v := range kv {
		if v < 0 {
			return false
		}
	}
	return true
}

// Gather is what the sources pour one member's keys into, and the
// reusable per-close materialization scratch — the gather/sort buffers
// whose contents die inside one member's reconcile (the rows themselves
// escape into the emitted tables and stay per-close allocations). Buffers
// are shared across members, programs and calls; reset-to-empty keeps
// capacity, so steady-state closes stop paying the gather allocations
// that dominated the close path. The emptied buffers keep the previous
// window's state pointers alive in their capacity tail until overwritten
// — bounded by one window's key count.
type Gather struct {
	// The member being gathered.
	key       *compiler.KeySpec
	st        *compiler.Stage
	nk, width int
	shared    bool // sources may hold the same key
	byKey     bool // packed key and, as far as seen, nonNegative: refs order the rows
	keys      int  // keys added (not shared: every one is distinct)

	refs   []keyedRef  // sort refs, one per gathered key
	slab   []float64   // not shared: the rows, in gather order; escapes with the table
	states [][]float64 // shared keys' gathered states (nil: untrustworthy)
	kvs    []float64   // shared keys' gathered component values, nk per key
	merged []float64   // the state a run of equal keys reduces into
}

// Add adds one key of the member being gathered: the 128-bit store key,
// its component values (nil: the key is packed, and unpacked here
// straight into the row), the member's state, and whether that state is
// trustworthy for the full window (false for a multi-epoch key of a
// non-mergeable fold, whose state is then ignored). kv is only read
// during the call; state is only read, and only until the source next
// changes.
func (g *Gather) Add(key packet.Key128, kv, state []float64, valid bool) {
	g.keys++
	r := refOf(key, len(g.refs)) // the next ref, in either branch
	if g.shared {
		if !valid {
			state = nil
		}
		g.refs = append(g.refs, r)
		g.states = append(g.states, state)
		g.keyVals(&g.kvs, g.nk, r, kv)
		return
	}
	if !valid {
		return // no row: only counted
	}
	// Every trustworthy key is a row: project it while its state is at
	// hand, into the slab that escapes with the table, and sort refs to
	// the rows afterwards.
	row := g.keyVals(&g.slab, g.width, r, kv)
	if g.byKey { // then every row so far has a ref: r.idx is this row
		g.refs = append(g.refs, r)
	}
	exec.AppendOutCols(g.st, state, row[:g.nk:g.width]) // fills the row in place
}

// keyVals extends *buf by n words — a reslice within the bound the buffer
// was sized to, so only its length is rewritten — and fills their head
// with the key's component values, unpacked from the ref if kv is nil.
func (g *Gather) keyVals(buf *[]float64, n int, r keyedRef, kv []float64) []float64 {
	at := len(*buf)
	*buf = (*buf)[:at+n]
	dst := (*buf)[at : at+g.nk]
	if kv != nil {
		copy(dst, kv)
	} else {
		g.key.Unpack(r.k0, r.k1, dst)
	}
	if g.key.Signed() {
		g.byKey = g.byKey && nonNegative(dst)
	}
	return (*buf)[at:]
}

// member reconciles one member of one program: the stage's table and
// the number of distinct keys seen (emitted or not). total bounds the
// gather; shared says sources may hold the same key, reduce (nil: they
// cannot be combined) how such states merge.
func (g *Gather) member(sp *compiler.SwitchProgram, pi, mi int, srcs []StateSource, total int, shared bool, reduce func(dst, src []float64)) (*exec.Table, int) {
	st := sp.Members[mi]
	nk := sp.Key.NumComponents()
	width := nk + len(st.Out)
	t := &exec.Table{Schema: st.Schema}
	g.key, g.st, g.nk, g.width = sp.Key, st, nk, width
	g.shared, g.byKey, g.keys = shared, sp.Key.Packed, 0
	g.refs, g.states, g.kvs = g.refs[:0], g.states[:0], g.kvs[:0]
	if g.byKey || shared {
		g.refs = slices.Grow(g.refs, total)
	}
	if shared {
		g.states, g.kvs = slices.Grow(g.states, total), slices.Grow(g.kvs, total*nk)
	} else {
		g.slab = make([]float64, 0, total*width)
	}
	for _, s := range srcs {
		s.GatherMember(pi, mi, g)
	}
	refs, byKey := g.refs, g.byKey

	if !shared {
		slab := g.slab
		g.slab = nil // the table's from here on
		if byKey {
			sortRefs(refs)
		}
		t.Rows = make([][]float64, len(slab)/width)
		for i := range t.Rows {
			at := i * width
			if byKey {
				at = int(refs[i].idx) * width
			}
			t.Rows[i] = slab[at : at+width : at+width]
		}
		if !byKey {
			t.Sort() // the column sort
		}
		return t, g.keys
	}

	// Sources may share keys, so only one row per run of equal keys
	// survives: states and key values were gathered into scratch, and the
	// slab is carved once the runs are counted.
	states, kvs := g.states, g.kvs
	sortRefs(refs)
	keys := 0
	for i := range refs {
		if i == 0 || !refs[i].sameKey(refs[i-1]) {
			keys++
		}
	}
	slab := make([]float64, 0, keys*width)
	t.Rows = make([][]float64, 0, keys)
	for i := 0; i < len(refs); {
		head := refs[i]
		state := states[head.idx]
		copied := false
		for i++; i < len(refs) && refs[i].sameKey(head); i++ {
			next := states[refs[i].idx]
			switch {
			case state == nil:
				// Already untrustworthy: nothing later redeems the key.
			case next == nil || reduce == nil:
				state = nil
			default:
				if !copied {
					g.merged = append(g.merged[:0], state...)
					state, copied = g.merged, true
				}
				reduce(state, next)
			}
		}
		if state != nil {
			at := len(slab)
			slab = exec.AppendOutCols(st, state, append(slab, kvs[int(head.idx)*nk:int(head.idx+1)*nk]...))
			t.Rows = append(t.Rows, slab[at:len(slab):len(slab)])
		}
	}
	if !byKey {
		t.Sort()
	}
	return t, keys
}
