package fold

import (
	"encoding/binary"
	"math"
	"testing"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

// irGen decodes a byte stream into bounded random fold IR. The decoder
// is total: any input yields a valid program (depth- and state-bounded),
// so every fuzz input exercises the compiler and both evaluators.
type irGen struct {
	data []byte
	pos  int
	// stateless draws a field wherever expr would draw a state or column
	// reference: the shape of WHEREs and history-free merge coefficients.
	stateless bool
}

func (g *irGen) field() Expr { return FieldRef(fuzzFields[int(g.byte())%len(fuzzFields)]) }

func (g *irGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *irGen) float() float64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = g.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// fuzzFields is the field palette the generator draws from.
var fuzzFields = []trace.FieldID{
	trace.FieldTin, trace.FieldTout, trace.FieldPktLen,
	trace.FieldTCPSeq, trace.FieldPayloadLen, trace.FieldProto,
}

const fuzzStates = 3
const fuzzCols = 4

func (g *irGen) expr(depth int) Expr {
	if depth <= 0 {
		switch k := g.byte() % 4; {
		case k == 0:
			return Const(g.float())
		case k == 1 || g.stateless:
			return g.field()
		case k == 2:
			return ColRef(int(g.byte()) % fuzzCols)
		default:
			return StateRef(int(g.byte()) % fuzzStates)
		}
	}
	switch k := g.byte() % 8; k {
	case 0:
		return Const(g.float())
	case 1:
		return g.field()
	case 2, 7:
		if g.stateless {
			return g.field()
		}
		if k == 7 {
			return ColRef(int(g.byte()) % fuzzCols)
		}
		return StateRef(int(g.byte()) % fuzzStates)
	case 3:
		return Bin{Op: Op(g.byte() % 12), L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 4:
		if g.byte()%2 == 0 {
			return Not{X: g.expr(depth - 1)}
		}
		return Neg{X: g.expr(depth - 1)}
	case 5:
		if g.byte()%3 == 0 {
			return Call{Fn: FnAbs, Args: []Expr{g.expr(depth - 1)}}
		}
		fn := FnMin
		if g.byte()%2 == 0 {
			fn = FnMax
		}
		return Call{Fn: fn, Args: []Expr{g.expr(depth - 1), g.expr(depth - 1)}}
	default:
		return CondExpr{P: g.expr(depth - 1), T: g.expr(depth - 1), E: g.expr(depth - 1)}
	}
}

func (g *irGen) stmts(depth, n int) []Stmt {
	out := make([]Stmt, 0, n)
	for i := 0; i < n; i++ {
		if depth > 0 && g.byte()%4 == 0 {
			out = append(out, If{
				Cond: g.expr(depth - 1),
				Then: g.stmts(depth-1, 1+int(g.byte())%2),
				Else: g.stmts(depth-1, int(g.byte())%2),
			})
			continue
		}
		out = append(out, Assign{Dst: int(g.byte()) % fuzzStates, RHS: g.expr(depth)})
	}
	return out
}

// FuzzFoldVM holds the bytecode VM to agreement with the reference tree
// interpreter on randomly generated programs and inputs, and the block
// loop to both on a generated stateless expression over a block of
// records. Conditions and and/or/not operands are arbitrary expressions
// (NaN and ±0 included) and comparison results feed arithmetic, so
// "nonzero is true" is exercised everywhere. Agreement is bit-identical,
// except that any NaN matches any NaN (eqBits).
func FuzzFoldVM(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(0), uint32(0), 0.0, 0.0)
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(10), int64(25), uint32(1500), 1.5, -2.5)
	f.Add([]byte{6, 1, 4, 2, 250, 9, 9, 9, 3, 3, 3, 3, 0, 255, 17}, int64(5), trace.Infinity, uint32(64), math.Inf(1), 0.0)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, int64(-3), int64(7), uint32(9000), math.NaN(), 1e300)

	f.Fuzz(func(t *testing.T, ir []byte, tin, tout int64, pktLen uint32, c0, c1 float64) {
		g := &irGen{data: ir}
		prog := &Program{
			Name:     "fuzz",
			NumState: fuzzStates,
			S0:       []float64{g.float(), g.float(), g.float()},
			Body:     g.stmts(3, 1+int(g.byte())%3),
		}
		if prog.Validate() != nil {
			return
		}
		code, err := CompileProgram(prog)
		if err != nil {
			return // deeper than the register file: interpreter-only
		}
		rec := trace.Record{Tin: tin, Tout: tout, PktLen: pktLen}
		in := Input{Rec: &rec, Cols: []float64{c0, c1, c0 * c1, c0 - c1}}

		sv := prog.InitState()
		si := prog.InitState()
		for step := 0; step < 3; step++ {
			code.Run(sv, &in)
			prog.Update(si, &in)
			for i := range sv {
				if !eqBits(sv[i], si[i]) {
					t.Fatalf("step %d state[%d]: vm=%x interp=%x\nprogram: %v\ncode:\n%v",
						step, i, math.Float64bits(sv[i]), math.Float64bits(si[i]), prog, code)
				}
			}
		}

		// The dense-field path must agree with direct record reads.
		var fields [trace.NumFields]float64
		for _, fid := range FieldIDs(code.FieldMask()) {
			fields[fid] = float64(rec.Field(fid))
		}
		dense := in
		dense.Fields = fields[:]
		sd := prog.InitState()
		for step := 0; step < 3; step++ {
			code.Run(sd, &dense)
		}
		for i := range sd {
			if !eqBits(sd[i], sv[i]) {
				t.Fatalf("dense state[%d]: %x vs %x", i, math.Float64bits(sd[i]), math.Float64bits(sv[i]))
			}
		}

		// A stateless expression must also run a block at a time, every
		// lane bit-identical to the scalar loop and to the interpreter:
		// constants carry NaN, ±0 and ±Inf, zeroed fields make x/0 lanes.
		g.stateless = true
		e := g.expr(3)
		ecode, err := CompileExpr(e)
		if err != nil {
			return
		}
		if !ecode.Vectorizable() {
			t.Fatalf("stateless expression %v compiled to a code the block loop cannot run:\n%v", e, ecode)
		}
		recs := make([]trace.Record, BlockSize)
		x := uint64(tin) ^ uint64(tout)<<1 ^ uint64(pktLen)<<2
		next := func() uint64 { // splitmix64
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		for l := range recs {
			r := &recs[l]
			r.Tin, r.Tout = int64(next()>>20), int64(next()>>20)
			r.PktLen, r.TCPSeq, r.PayloadLen = uint32(next()), uint32(next()), uint32(next()>>48)
			r.Proto = packet.Proto(next())
			switch next() % 4 { // lanes with zero and sentinel fields
			case 0:
				*r = trace.Record{Tin: r.Tin}
			case 1:
				r.Tout = trace.Infinity
			}
		}
		recs[0] = rec
		var blk InputBlock
		var regs BlockRegs
		var out [BlockSize]float64
		ecode.EvalBlock(&blk, fillBlock(&blk, recs), &regs, out[:])
		for l := range recs {
			lin := Input{Rec: &recs[l]}
			scalar, interp := ecode.Eval(&lin, nil), EvalExpr(e, &lin, nil)
			if !eqBits(out[l], scalar) || !eqBits(scalar, interp) {
				t.Fatalf("lane %d: block=%x scalar=%x interp=%x\nexpression: %v\ncode:\n%v",
					l, math.Float64bits(out[l]), math.Float64bits(scalar), math.Float64bits(interp), e, ecode)
			}
		}
	})
}
