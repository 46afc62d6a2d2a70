package fold

import (
	"fmt"
	"strings"

	"perfq/internal/trace"
)

// The bytecode disassembler: what the differential and fuzz suites print
// when VM and interpreter disagree. Nothing outside the tests reads it.

var opNames = [...]string{
	opConst: "const", opField: "field", opCol: "col", opState: "state",
	opAdd: "add", opSub: "sub", opMul: "mul", opDiv: "div", opNeg: "neg",
	opMin: "min", opMax: "max", opAbs: "abs",
	opEq: "eq", opNe: "ne", opLt: "lt", opLe: "le", opGt: "gt", opGe: "ge",
	opAnd: "and", opOr: "or", opNot: "not",
	opStore: "store", opJmp: "jmp", opJz: "jz",
	opAddK: "addk", opSubK: "subk", opMulK: "mulk", opDivK: "divk",
	opKSub: "ksub", opKDiv: "kdiv", opSubFF: "subff",
	opEqK: "eqk", opNeK: "nek", opLtK: "ltk", opLeK: "lek", opGtK: "gtk", opGeK: "gek",
	opSel: "sel",
}

// NumRegs returns how many registers the code uses.
func (c *Code) NumRegs() int { return c.nreg }

// Len returns the instruction count.
func (c *Code) Len() int { return len(c.ops) }

// String disassembles the code for debugging and docs.
func (c *Code) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "code (%d regs)\n", c.nreg)
	for i, op := range c.ops {
		fmt.Fprintf(&b, "%3d  %-5s", i, opNames[op.op])
		switch op.op {
		case opConst:
			fmt.Fprintf(&b, " r%d <- %v", op.a, Const(c.consts[op.b]))
		case opField:
			fmt.Fprintf(&b, " r%d <- %v", op.a, trace.FieldID(op.b))
		case opCol:
			fmt.Fprintf(&b, " r%d <- $%d", op.a, op.b)
		case opState:
			fmt.Fprintf(&b, " r%d <- s%d", op.a, op.b)
		case opNeg, opAbs, opNot:
			fmt.Fprintf(&b, " r%d <- r%d", op.a, op.b)
		case opStore:
			fmt.Fprintf(&b, " s%d <- r%d", op.b, op.a)
		case opJmp:
			fmt.Fprintf(&b, " -> %d", op.a)
		case opJz:
			fmt.Fprintf(&b, " r%d -> %d", op.a, op.b)
		case opAddK, opSubK, opMulK, opDivK, opKSub, opKDiv,
			opEqK, opNeK, opLtK, opLeK, opGtK, opGeK:
			fmt.Fprintf(&b, " r%d <- r%d, %v", op.a, op.b, Const(c.consts[op.c]))
		case opSubFF:
			fmt.Fprintf(&b, " r%d <- %v - %v", op.a, trace.FieldID(op.b), trace.FieldID(op.c))
		default:
			fmt.Fprintf(&b, " r%d <- r%d, r%d", op.a, op.b, op.c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
