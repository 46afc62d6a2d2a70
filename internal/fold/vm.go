package fold

import (
	"math"
	"slices"

	"perfq/internal/trace"
)

// This file is the execution half of the fold bytecode VM; compile.go is
// the lowering half. The paper's switch executes one state update per
// clock from a flat action table; the software datapath gets the same
// shape here: every Program, WHERE predicate and SELECT column expression
// lowers once to a register-based bytecode whose Run loop contains no
// interface values, no recursion and no allocation. The tree interpreter
// in eval.go defines the semantics and nothing else runs it per record:
// compile-time constant folding reuses it verbatim, and the
// differential/fuzz suite holds Run to bit-identical agreement with it.

// maxRegs is the register-file size. It bounds lowered expression depth;
// a program that needs more registers fails to compile and the query is
// rejected — there is no second evaluator. Real queries use a handful;
// the array is kept small because Run zeroes it on every call.
const maxRegs = 16

// opcode is one VM operation.
type opcode uint8

const (
	opConst opcode = iota // R[a] = consts[b]
	opField               // R[a] = field b of the input record
	opCol                 // R[a] = in.Cols[b]
	opState               // R[a] = state[b]
	opAdd                 // R[a] = R[b] + R[c]
	opSub                 // R[a] = R[b] - R[c]
	opMul                 // R[a] = R[b] * R[c]
	opDiv                 // R[a] = R[b] / R[c], 0 when R[c] == 0
	opNeg                 // R[a] = -R[b]
	opMin                 // R[a] = math.Min(R[b], R[c])
	opMax                 // R[a] = math.Max(R[b], R[c])
	opAbs                 // R[a] = math.Abs(R[b])
	opEq                  // R[a] = bool01(R[b] == R[c])
	opNe                  // R[a] = bool01(R[b] != R[c])
	opLt                  // R[a] = bool01(R[b] < R[c])
	opLe                  // R[a] = bool01(R[b] <= R[c])
	opGt                  // R[a] = bool01(R[b] > R[c])
	opGe                  // R[a] = bool01(R[b] >= R[c])
	opAnd                 // R[a] = bool01(R[b] != 0 && R[c] != 0)
	opOr                  // R[a] = bool01(R[b] != 0 || R[c] != 0)
	opNot                 // R[a] = bool01(R[b] == 0)
	opStore               // state[b] = R[a]
	opJmp                 // pc = a
	opJz                  // if R[a] == 0 { pc = b }

	// Superinstructions: one dispatch instead of two or three for the
	// dominant IR shapes (state+const counters, α·x decays, field-delta
	// latencies, const-threshold guards). The lowering in compile.go
	// folds the constant operand at compile time with the interpreter
	// itself, so these cannot diverge from the canonical ops.
	opAddK  // R[a] = R[b] + K[c]
	opSubK  // R[a] = R[b] - K[c]
	opMulK  // R[a] = R[b] * K[c]
	opDivK  // R[a] = R[b] / K[c] (K[c] != 0 by construction)
	opKSub  // R[a] = K[c] - R[b]
	opKDiv  // R[a] = K[c] / R[b], 0 when R[b] == 0
	opSubFF // R[a] = field b - field c
	opEqK   // R[a] = bool01(R[b] == K[c])
	opNeK   // R[a] = bool01(R[b] != K[c])
	opLtK   // R[a] = bool01(R[b] < K[c])
	opLeK   // R[a] = bool01(R[b] <= K[c])
	opGtK   // R[a] = bool01(R[b] > K[c])
	opGeK   // R[a] = bool01(R[b] >= K[c])

	opSel // if R[c] != 0 { R[a] = R[b] }: a CondExpr picks its arm
)

// instr is one fixed-width instruction.
type instr struct {
	op      opcode
	a, b, c uint16
}

// Code is a compiled fold program, expression or predicate. Programs
// execute via Run; expressions and predicates leave their result in
// register 0 and execute via Eval / EvalBool. A Code is immutable after
// compilation and safe for concurrent use (each call owns its register
// file).
type Code struct {
	ops    []instr
	consts []float64
	nreg   int
	fields uint32 // bitmask of trace.FieldIDs read via opField
	scalar bool   // reads state/cols, stores state or branches: a record at a time
}

// same reports whether two codes are the same instructions over the same
// constants (by bit pattern), and so compute the same function.
func (c *Code) same(o *Code) bool {
	return slices.Equal(c.ops, o.ops) && slices.EqualFunc(c.consts, o.consts, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
}

// FieldMask returns a bitmask (bit i = trace.FieldID(i)) of the raw
// record fields the code reads — the set a caller must pre-extract when
// it supplies a dense Input.Fields vector.
func (c *Code) FieldMask() uint32 { return c.fields }

// bool01 converts a Go bool to the numeric boolean of the IR and the VM.
func bool01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// exec is the dispatch loop shared by Run, Eval and EvalBool. regs is the
// caller's (stack-allocated) register file; state may be nil for
// stateless codes; in supplies the record (and optionally a dense field
// vector) or the derived-row columns.
func (c *Code) exec(regs *[maxRegs]float64, in *Input, state []float64) {
	ops := c.ops
	for pc := 0; pc < len(ops); pc++ {
		op := ops[pc]
		switch op.op {
		case opConst:
			regs[op.a] = c.consts[op.b]
		case opField:
			if in.Fields != nil {
				regs[op.a] = in.Fields[op.b]
			} else {
				regs[op.a] = float64(in.Rec.Field(trace.FieldID(op.b)))
			}
		case opCol:
			regs[op.a] = in.Cols[op.b]
		case opState:
			regs[op.a] = state[op.b]
		case opAdd:
			regs[op.a] = regs[op.b] + regs[op.c]
		case opSub:
			regs[op.a] = regs[op.b] - regs[op.c]
		case opMul:
			regs[op.a] = regs[op.b] * regs[op.c]
		case opDiv:
			if r := regs[op.c]; r == 0 {
				regs[op.a] = 0
			} else {
				regs[op.a] = regs[op.b] / r
			}
		case opNeg:
			regs[op.a] = -regs[op.b]
		case opMin:
			regs[op.a] = math.Min(regs[op.b], regs[op.c])
		case opMax:
			regs[op.a] = math.Max(regs[op.b], regs[op.c])
		case opAbs:
			regs[op.a] = math.Abs(regs[op.b])
		case opEq:
			regs[op.a] = bool01(regs[op.b] == regs[op.c])
		case opNe:
			regs[op.a] = bool01(regs[op.b] != regs[op.c])
		case opLt:
			regs[op.a] = bool01(regs[op.b] < regs[op.c])
		case opLe:
			regs[op.a] = bool01(regs[op.b] <= regs[op.c])
		case opGt:
			regs[op.a] = bool01(regs[op.b] > regs[op.c])
		case opGe:
			regs[op.a] = bool01(regs[op.b] >= regs[op.c])
		case opAnd:
			regs[op.a] = bool01(regs[op.b] != 0 && regs[op.c] != 0)
		case opOr:
			regs[op.a] = bool01(regs[op.b] != 0 || regs[op.c] != 0)
		case opNot:
			regs[op.a] = bool01(regs[op.b] == 0)
		case opStore:
			state[op.b] = regs[op.a]
		case opJmp:
			pc = int(op.a) - 1
		case opJz:
			if regs[op.a] == 0 {
				pc = int(op.b) - 1
			}
		case opAddK:
			regs[op.a] = regs[op.b] + c.consts[op.c]
		case opSubK:
			regs[op.a] = regs[op.b] - c.consts[op.c]
		case opMulK:
			regs[op.a] = regs[op.b] * c.consts[op.c]
		case opDivK:
			regs[op.a] = regs[op.b] / c.consts[op.c]
		case opKSub:
			regs[op.a] = c.consts[op.c] - regs[op.b]
		case opKDiv:
			if r := regs[op.b]; r == 0 {
				regs[op.a] = 0
			} else {
				regs[op.a] = c.consts[op.c] / r
			}
		case opSubFF:
			if in.Fields != nil {
				regs[op.a] = in.Fields[op.b] - in.Fields[op.c]
			} else {
				regs[op.a] = float64(in.Rec.Field(trace.FieldID(op.b))) - float64(in.Rec.Field(trace.FieldID(op.c)))
			}
		case opEqK:
			regs[op.a] = bool01(regs[op.b] == c.consts[op.c])
		case opNeK:
			regs[op.a] = bool01(regs[op.b] != c.consts[op.c])
		case opLtK:
			regs[op.a] = bool01(regs[op.b] < c.consts[op.c])
		case opLeK:
			regs[op.a] = bool01(regs[op.b] <= c.consts[op.c])
		case opGtK:
			regs[op.a] = bool01(regs[op.b] > c.consts[op.c])
		case opGeK:
			regs[op.a] = bool01(regs[op.b] >= c.consts[op.c])
		case opSel:
			if regs[op.c] != 0 {
				regs[op.a] = regs[op.b]
			}
		}
	}
}

// Run executes a compiled program body once, mutating state in place —
// the VM counterpart of Program.Update.
func (c *Code) Run(state []float64, in *Input) {
	var regs [maxRegs]float64
	c.exec(&regs, in, state)
}

// Eval executes a compiled expression and returns its value — the VM
// counterpart of EvalExpr. state may be nil for stateless expressions.
func (c *Code) Eval(in *Input, state []float64) float64 {
	var regs [maxRegs]float64
	c.exec(&regs, in, state)
	return regs[0]
}

// EvalBool executes a compiled expression and reports whether its value
// is nonzero: a WHERE's verdict.
func (c *Code) EvalBool(in *Input, state []float64) bool {
	var regs [maxRegs]float64
	c.exec(&regs, in, state)
	return regs[0] != 0
}
