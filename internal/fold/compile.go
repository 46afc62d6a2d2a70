package fold

import (
	"fmt"
	"math"

	"perfq/internal/trace"
)

// This file lowers the fold IR to the flat bytecode of vm.go. Lowering is
// a preorder flattening with a stack register discipline: an expression
// compiles into a destination register using only registers above it as
// temporaries, so the register high-water mark equals expression depth.
// Statements compile to store/branch instructions over the live state
// vector, which preserves the interpreter's sequential semantics (later
// statements observe earlier assignments) for free.
//
// Exactness rules, enforced by the differential suite against eval.go:
//
//   - Arithmetic lowers in interpreter evaluation order (left operand
//     first) onto the same float64 operations, so results are
//     bit-identical.
//   - Subexpressions without input or state references are folded at
//     compile time BY the interpreter itself (constfold.go, one pass
//     before lowering), so folding cannot diverge from it; lowering only
//     looks for Const operands.
//   - Comparisons and and/or/not lower to 0/1 registers, as the
//     interpreter computes them.
//   - CondExpr lowers to both arms and a select: expressions are total
//     and side-effect free, so evaluating the untaken arm is unobservable,
//     and expression codes stay straight-line, so vmblock.go can run
//     them. If statements lower to real branches: only the taken arm
//     executes.

// compiler is the state of one lowering.
type compiler struct {
	code Code
	err  error
}

// errTooDeep reports expression depth beyond the register file. There is
// no other evaluator to fall back to: the plan compiler rejects the query.
var errTooDeep = fmt.Errorf("expression too deeply nested: it needs more than %d registers, the fold VM's limit", maxRegs)

// CompileProgram lowers a program body to bytecode. The returned code's
// Run mutates a state vector exactly as Program.Update does.
func CompileProgram(p *Program) (*Code, error) {
	c := &compiler{}
	c.stmts(foldStmts(p.Body))
	return c.finish()
}

// CompileExpr lowers an expression; the result lands in register 0. A
// nil expression (no WHERE: every row matches) has no code.
func CompileExpr(e Expr) (*Code, error) {
	if e == nil {
		return nil, nil
	}
	c := &compiler{}
	c.expr(foldExpr(e), 0)
	return c.finish()
}

func (c *compiler) finish() (*Code, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.code.ops) > math.MaxUint16 {
		return nil, fmt.Errorf("fold: program too long for bytecode (%d ops)", len(c.code.ops))
	}
	for _, op := range c.code.ops {
		switch op.op {
		case opState, opCol, opStore, opJmp, opJz:
			c.code.scalar = true
		}
	}
	code := c.code
	return &code, nil
}

// emit appends one instruction and returns its index (for branch
// patching).
func (c *compiler) emit(op opcode, a, b, cc int) int {
	c.code.ops = append(c.code.ops, instr{op: op, a: uint16(a), b: uint16(b), c: uint16(cc)})
	return len(c.code.ops) - 1
}

// patch points the branch at index i to the current instruction.
func (c *compiler) patch(i int) {
	at := len(c.code.ops)
	switch c.code.ops[i].op {
	case opJmp:
		c.code.ops[i].a = uint16(at)
	case opJz:
		c.code.ops[i].b = uint16(at)
	}
}

// reg claims register dst, tracking the high-water mark.
func (c *compiler) reg(dst int) bool {
	if dst >= maxRegs {
		if c.err == nil {
			c.err = errTooDeep
		}
		return false
	}
	if dst+1 > c.code.nreg {
		c.code.nreg = dst + 1
	}
	return true
}

// constIdx interns a constant (NaN-safe: pooled by bit pattern).
func (c *compiler) constIdx(v float64) int {
	bits := math.Float64bits(v)
	for i, k := range c.code.consts {
		if math.Float64bits(k) == bits {
			return i
		}
	}
	c.code.consts = append(c.code.consts, v)
	return len(c.code.consts) - 1
}

// loadConst emits R[dst] = v.
func (c *compiler) loadConst(v float64, dst int) {
	if !c.reg(dst) {
		return
	}
	c.emit(opConst, dst, c.constIdx(v), 0)
}

// stmts lowers a statement list.
func (c *compiler) stmts(stmts []Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case Assign:
			c.expr(s.RHS, 0)
			c.emit(opStore, 0, s.Dst, 0)
		case If:
			c.expr(s.Cond, 0)
			jz := c.emit(opJz, 0, 0, 0)
			c.stmts(s.Then)
			if len(s.Else) > 0 {
				jmp := c.emit(opJmp, 0, 0, 0)
				c.patch(jz)
				c.stmts(s.Else)
				c.patch(jmp)
			} else {
				c.patch(jz)
			}
		default:
			if c.err == nil {
				c.err = fmt.Errorf("fold: cannot compile statement %T", s)
			}
		}
	}
}

// expr lowers the (constant-folded) e into register dst, using
// registers above dst as temporaries.
func (c *compiler) expr(e Expr, dst int) {
	if c.err != nil {
		return
	}
	switch e := e.(type) {
	case Const:
		c.loadConst(float64(e), dst)
	case FieldRef:
		if c.reg(dst) {
			c.code.fields |= 1 << uint(e)
			c.emit(opField, dst, int(e), 0)
		}
	case ColRef:
		if c.reg(dst) {
			c.emit(opCol, dst, int(e), 0)
		}
	case StateRef:
		if c.reg(dst) {
			c.emit(opState, dst, int(e), 0)
		}
	case Bin:
		c.bin(e, dst)
	case Neg:
		c.expr(e.X, dst)
		c.emit(opNeg, dst, dst, 0)
	case Not:
		c.expr(e.X, dst)
		c.emit(opNot, dst, dst, 0)
	case Call:
		switch e.Fn {
		case FnMin, FnMax:
			c.expr(e.Args[0], dst)
			c.expr(e.Args[1], dst+1)
			op := opMin
			if e.Fn == FnMax {
				op = opMax
			}
			c.emit(op, dst, dst, dst+1)
		case FnAbs:
			c.expr(e.Args[0], dst)
			c.emit(opAbs, dst, dst, 0)
		default:
			c.err = fmt.Errorf("fold: cannot compile function %v", e.Fn)
		}
	case CondExpr:
		// Constant folding put the arm that needs more registers in E.
		c.expr(e.E, dst)
		c.expr(e.T, dst+1)
		c.expr(e.P, dst+2)
		c.emit(opSel, dst, dst+1, dst+2)
	default:
		c.err = fmt.Errorf("fold: cannot compile expression %T", e)
	}
}

// Opcodes indexed by Op: on two registers, with a constant right operand,
// and with a constant left one (K - x, K / x; K < x is x > K).
var (
	regOps    = [...]opcode{opAdd, opSub, opMul, opDiv, opEq, opNe, opLt, opLe, opGt, opGe, opAnd, opOr}
	constROps = [...]opcode{opAddK, opSubK, opMulK, opDivK, opEqK, opNeK, opLtK, opLeK, opGtK, opGeK}
	constLOps = [...]opcode{opAddK, opKSub, opMulK, opKDiv, opEqK, opNeK, opGtK, opGeK, opLtK, opLeK}
)

// bin lowers a binary node, fusing constant operands of arithmetic and
// comparisons and field-field subtraction into superinstructions.
// Evaluation-order changes are unobservable (operands are pure and total)
// and constant operands were folded by the interpreter itself, so results
// stay bit-identical to it.
func (c *compiler) bin(e Bin, dst int) {
	// lat-style field delta: one dispatch.
	if e.Op == OpSub {
		if lf, lok := e.L.(FieldRef); lok {
			if rf, rok := e.R.(FieldRef); rok {
				if c.reg(dst) {
					c.code.fields |= 1<<uint(lf) | 1<<uint(rf)
					c.emit(opSubFF, dst, int(lf), int(rf))
				}
				return
			}
		}
	}
	if int(e.Op) < len(constROps) {
		if k, ok := e.R.(Const); ok {
			if e.Op == OpDiv && k == 0 {
				// x/0 is 0 for every x (saturating ALU semantics).
				c.loadConst(0, dst)
				return
			}
			c.expr(e.L, dst)
			c.emit(constROps[e.Op], dst, dst, c.constIdx(float64(k)))
			return
		}
		if k, ok := e.L.(Const); ok {
			c.expr(e.R, dst)
			c.emit(constLOps[e.Op], dst, dst, c.constIdx(float64(k)))
			return
		}
	}
	c.expr(e.L, dst)
	c.expr(e.R, dst+1)
	if int(e.Op) >= len(regOps) {
		c.err = fmt.Errorf("fold: cannot compile operator %v", e.Op)
		return
	}
	c.emit(regOps[e.Op], dst, dst, dst+1)
}

// FieldIDs expands a FieldMask into the field list it covers.
func FieldIDs(mask uint32) []trace.FieldID {
	var out []trace.FieldID
	for f := 0; f < trace.NumFields; f++ {
		if mask&(1<<uint(f)) != 0 {
			out = append(out, trace.FieldID(f))
		}
	}
	return out
}
