package fold

import (
	"math"

	"perfq/internal/trace"
)

// Columnar batch execution for the bytecode VM. The scalar exec loop in
// vm.go pays one dispatch switch per instruction per record; over a
// block of records the same instruction can run across every lane
// before the next dispatch, amortizing the switch and the bounds checks
// to 1/BlockSize per record. The datapath's stateless stage runs on this:
// WHERE predicates and history-free merge coefficients are functions of
// the record alone, and every expression and predicate lowers to
// straight-line code (see compile.go). Codes that branch or touch per-key
// state — fold bodies, history coefficients, collector stages — run on
// the scalar loop only.

// BlockSize is the columnar batch width: 64 lanes, so a predicate's
// result block packs into a single uint64 mask.
const (
	BlockSize  = 64
	blockShift = 6
)

// InputBlock is a field-major columnar batch of up to BlockSize records:
// field f of lane l lives at Fields[int(f)*BlockSize+l]. Only the fields
// a code reads (Code.FieldMask) need be populated.
type InputBlock struct {
	Fields [trace.NumFields * BlockSize]float64
}

// Lane returns field f's lane vector.
func (b *InputBlock) Lane(f trace.FieldID) []float64 {
	off := int(f) << blockShift
	return b.Fields[off : off+BlockSize : off+BlockSize]
}

// BlockRegs is the register file for block execution, owned by the
// caller so repeated EvalBoolBlock calls stay allocation-free.
type BlockRegs [maxRegs][BlockSize]float64

// Vectorizable reports whether the code can run a block at a time: no
// jumps (straight-line) and no per-key reads (state, derived-row
// columns, state stores). Every WHERE over the raw table and every
// history-free merge coefficient compiles to such a code; callers check
// once at setup, not per block.
func (c *Code) Vectorizable() bool { return !c.scalar }

// EvalBlock evaluates a compiled (Vectorizable) expression over the first
// n lanes of blk into dst, bit-identical to Eval per record.
func (c *Code) EvalBlock(blk *InputBlock, n int, regs *BlockRegs, dst []float64) {
	c.execBlock(blk, n, regs)
	copy(dst[:n], regs[0][:n])
}

// EvalBoolBlock evaluates a compiled predicate over the first n lanes of
// blk and returns the results as a bitmask (bit l = lane l matched),
// bit-identical to EvalBool per record. The code must be Vectorizable.
func (c *Code) EvalBoolBlock(blk *InputBlock, n int, regs *BlockRegs) uint64 {
	c.execBlock(blk, n, regs)
	var mask uint64
	r0 := &regs[0]
	for l := 0; l < n; l++ {
		if r0[l] != 0 {
			mask |= 1 << l
		}
	}
	return mask
}

// execBlock is the vectorized dispatch loop: one instruction switch per
// block, a tight lane loop per instruction. Per-lane arithmetic is
// identical (same operations, same order) to the scalar exec loop, so
// results are bit-exact.
func (c *Code) execBlock(blk *InputBlock, n int, regs *BlockRegs) {
	for _, op := range c.ops {
		ra := &regs[op.a]
		switch op.op {
		case opConst:
			k := c.consts[op.b]
			for l := 0; l < n; l++ {
				ra[l] = k
			}
		case opField:
			src := blk.Fields[int(op.b)<<blockShift:]
			for l := 0; l < n; l++ {
				ra[l] = src[l]
			}
		case opAdd:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = rb[l] + rc[l]
			}
		case opSub:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = rb[l] - rc[l]
			}
		case opMul:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = rb[l] * rc[l]
			}
		case opDiv:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				if r := rc[l]; r == 0 {
					ra[l] = 0
				} else {
					ra[l] = rb[l] / r
				}
			}
		case opNeg:
			rb := &regs[op.b]
			for l := 0; l < n; l++ {
				ra[l] = -rb[l]
			}
		case opMin:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = math.Min(rb[l], rc[l])
			}
		case opMax:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = math.Max(rb[l], rc[l])
			}
		case opAbs:
			rb := &regs[op.b]
			for l := 0; l < n; l++ {
				ra[l] = math.Abs(rb[l])
			}
		case opEq:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] == rc[l])
			}
		case opNe:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] != rc[l])
			}
		case opLt:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] < rc[l])
			}
		case opLe:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] <= rc[l])
			}
		case opGt:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] > rc[l])
			}
		case opGe:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] >= rc[l])
			}
		case opAnd:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] != 0 && rc[l] != 0)
			}
		case opOr:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] != 0 || rc[l] != 0)
			}
		case opNot:
			rb := &regs[op.b]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] == 0)
			}
		case opAddK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = rb[l] + k
			}
		case opSubK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = rb[l] - k
			}
		case opMulK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = rb[l] * k
			}
		case opDivK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = rb[l] / k
			}
		case opKSub:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = k - rb[l]
			}
		case opKDiv:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				if r := rb[l]; r == 0 {
					ra[l] = 0
				} else {
					ra[l] = k / r
				}
			}
		case opSubFF:
			sb := blk.Fields[int(op.b)<<blockShift:]
			sc := blk.Fields[int(op.c)<<blockShift:]
			for l := 0; l < n; l++ {
				ra[l] = sb[l] - sc[l]
			}
		case opEqK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] == k)
			}
		case opNeK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] != k)
			}
		case opLtK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] < k)
			}
		case opLeK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] <= k)
			}
		case opGtK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] > k)
			}
		case opGeK:
			rb, k := &regs[op.b], c.consts[op.c]
			for l := 0; l < n; l++ {
				ra[l] = bool01(rb[l] >= k)
			}
		case opSel:
			rb, rc := &regs[op.b], &regs[op.c]
			for l := 0; l < n; l++ {
				if rc[l] != 0 {
					ra[l] = rb[l]
				}
			}
		}
	}
}
