package lang

import (
	"fmt"
	"slices"
	"strings"
)

// Parse lexes and parses a query program. The parser pulls tokens from
// the lexer as it goes, so a query is lexed only as far as it parses: the
// first error of either kind ends the work.
func Parse(src string) (*Program, error) {
	p := &parser{lx: newLexer(src)}
	prog, err := p.parseProgram()
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return prog, err
}

// MaxExprDepth bounds how deep query text may nest: the height of an
// expression's syntax tree — which a left-deep chain of binary operators
// grows by one per operator — and the parentheses, unary operators, call
// arguments and if statements the parser is inside of at any point. The
// parser and the checker's one walk both recurse to that depth, so
// without a bound a hostile or generated query overflows the stack, which
// no caller can recover from.
const MaxExprDepth = 10000

type parser struct {
	lx  *lexer
	pos int
	// depth is the nesting the parser is inside of; height is the
	// syntax-tree height of the expression it returned last. Both are
	// held to MaxExprDepth.
	depth, height int
}

func errTooDeep(pos Pos) *Error {
	return errf(pos, "expression nested deeper than %d", MaxExprDepth)
}

// enter steps one nesting level down; the caller steps back up with
// p.depth-- once the nested construct is parsed.
func (p *parser) enter(pos Pos) error {
	if p.depth++; p.depth > MaxExprDepth {
		return errTooDeep(pos)
	}
	return nil
}

// grow records a node built at pos over subtrees of height h.
func (p *parser) grow(pos Pos, h int) error {
	if p.height = h + 1; p.height > MaxExprDepth {
		return errTooDeep(pos)
	}
	return nil
}

func (p *parser) cur() Token  { return p.lx.token(p.pos) }
func (p *parser) next() Token { t := p.cur(); p.pos++; return t }

func (p *parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k Kind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	t := p.cur()
	return t, errf(t.Pos, "expected %v, found %v", k, t)
}

func (p *parser) skipNewlines() {
	for p.at(NEWLINE) {
		p.pos++
	}
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for {
		p.skipNewlines()
		switch p.cur().Kind {
		case EOF:
			return prog, nil
		case KwConst:
			c, err := p.parseConst()
			if err != nil {
				return nil, err
			}
			prog.Consts = append(prog.Consts, c)
		case KwDef:
			f, err := p.parseFold()
			if err != nil {
				return nil, err
			}
			prog.Folds = append(prog.Folds, f)
		case KwSelect:
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			prog.Queries = append(prog.Queries, &QueryDecl{Query: q, Pos: q.queryPos()})
		case IDENT:
			// Named query: "R1 = SELECT …".
			name := p.next()
			if _, err := p.expect(ASSIGN); err != nil {
				return nil, errf(name.Pos, "top-level %q must be 'const', 'def', or a query binding (name = SELECT …)", name.Text)
			}
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			prog.Queries = append(prog.Queries, &QueryDecl{Name: name.Text, Query: q, Pos: name.Pos})
		default:
			t := p.cur()
			return nil, errf(t.Pos, "unexpected %v at top level", t)
		}
		// Top-level items are newline-separated; a def whose body was an
		// indented block has already consumed its DEDENT with no NEWLINE
		// pending, so the separator is optional.
		p.accept(NEWLINE)
	}
}

func (p *parser) parseConst() (*ConstDecl, error) {
	kw := p.next() // const
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ConstDecl{Name: name.Text, Expr: e, Pos: kw.Pos}, nil
}

// parseFold parses "def name(stateParams, (rowParams)): body".
func (p *parser) parseFold() (*FoldDecl, error) {
	kw := p.next() // def
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	state, err := p.parseParamGroup()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	row, err := p.parseParamGroup()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrInline()
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, errf(kw.Pos, "fold %s has an empty body", name.Text)
	}
	return &FoldDecl{
		Name: name.Text, StateParams: state, RowParams: row,
		Body: body, Pos: kw.Pos,
	}, nil
}

// parseParamGroup parses "x" or "(x, y, …)".
func (p *parser) parseParamGroup() ([]string, error) {
	if p.accept(LPAREN) {
		var names []string
		for {
			t, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			names = append(names, t.Text)
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return names, nil
	}
	t, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	return []string{t.Text}, nil
}

// parseBlockOrInline parses either inline statements on the same line
// ("def f(..): x = x + 1") or an indented block on following lines.
func (p *parser) parseBlockOrInline() ([]Stmt, error) {
	if !p.at(NEWLINE) {
		return p.parseInlineStmts()
	}
	p.next() // NEWLINE
	if _, err := p.expect(INDENT); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for {
		p.skipNewlines()
		if p.accept(DEDENT) {
			break
		}
		if p.at(EOF) {
			break
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		// Statements are newline-separated, but a statement that ended
		// with an indented block (pythonic if) already consumed its
		// terminating DEDENT and has no pending NEWLINE.
		if p.at(NEWLINE) {
			p.next()
		} else if !p.at(DEDENT) && !p.at(EOF) {
			if _, isIf := s.(*IfStmt); !isIf {
				if _, err := p.expect(NEWLINE); err != nil {
					return nil, err
				}
			}
		}
	}
	return stmts, nil
}

// parseInlineStmts parses statements up to end of line. Multiple inline
// statements are not separated (the paper writes one per line); a single
// statement is the common case.
func (p *parser) parseInlineStmts() ([]Stmt, error) {
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if p.at(KwIf) {
		return p.parseIf()
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, errf(p.cur().Pos, "expected a statement (assignment or if), found %v", p.cur())
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Name: name.Text, Expr: e, Pos: name.Pos}, nil
}

// parseIf handles both forms:
//
//	if cond: stmts [else: stmts]       (pythonic, inline or indented)
//	if cond then stmt [else stmt]      (Figure 1 grammar)
func (p *parser) parseIf() (Stmt, error) {
	kw := p.next() // if
	if err := p.enter(kw.Pos); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	stmt := &IfStmt{Cond: cond, Pos: kw.Pos}
	switch {
	case p.accept(COLON):
		stmt.Then, err = p.parseBlockOrInline()
		if err != nil {
			return nil, err
		}
		// Optional else on its own line (after the indented block) or
		// directly following an inline then.
		savedPos := p.pos
		p.skipNewlines()
		if p.accept(KwElse) {
			if _, err := p.expect(COLON); err != nil {
				return nil, err
			}
			stmt.Else, err = p.parseBlockOrInline()
			if err != nil {
				return nil, err
			}
		} else {
			p.pos = savedPos
		}
	case p.accept(KwThen):
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmt.Then = []Stmt{s}
		if p.accept(KwElse) {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			stmt.Else = []Stmt{s}
		}
	default:
		return nil, errf(p.cur().Pos, "expected ':' or 'then' after if condition, found %v", p.cur())
	}
	return stmt, nil
}

// parseQuery parses a SELECT query, distinguishing joins by the JOIN
// keyword after FROM.
func (p *parser) parseQuery() (Query, error) {
	sel, err := p.expect(KwSelect)
	if err != nil {
		return nil, err
	}
	cols, err := p.parseSelectCols()
	if err != nil {
		return nil, err
	}

	from := "T"
	var joinRight string
	var on []Expr
	isJoin := false
	if p.accept(KwFrom) {
		t, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		from = t.Text
		if p.accept(KwJoin) {
			isJoin = true
			rt, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			joinRight = rt.Text
			if _, err := p.expect(KwOn); err != nil {
				return nil, err
			}
			on, err = p.parseExprList()
			if err != nil {
				return nil, err
			}
		}
	}

	var groupBy []Expr
	if p.accept(KwGroupBy) {
		if isJoin {
			return nil, errf(sel.Pos, "JOIN queries cannot have GROUPBY (the join already keys rows)")
		}
		groupBy, err = p.parseExprList()
		if err != nil {
			return nil, err
		}
	}

	// The paper's examples put FROM after GROUPBY in the grammar
	// (group_query := group_select group_clause from_clause); accept that
	// order too.
	if p.accept(KwFrom) {
		t, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		from = t.Text
	}

	var where Expr
	if p.accept(KwWhere) {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	// GROUPBY may also follow WHERE in informal usage.
	if p.accept(KwGroupBy) {
		if groupBy != nil {
			return nil, errf(p.cur().Pos, "duplicate GROUPBY clause")
		}
		if isJoin {
			return nil, errf(sel.Pos, "JOIN queries cannot have GROUPBY")
		}
		groupBy, err = p.parseExprList()
		if err != nil {
			return nil, err
		}
	}

	if isJoin {
		return &JoinQuery{Cols: cols, Left: from, Right: joinRight, On: on, Where: where, Pos: sel.Pos}, nil
	}
	return &SelectQuery{Cols: cols, From: from, Where: where, GroupBy: groupBy, Pos: sel.Pos}, nil
}

func (p *parser) parseSelectCols() ([]SelectCol, error) {
	var cols []SelectCol
	for {
		if p.at(STAR) {
			t := p.next()
			cols = append(cols, SelectCol{Expr: &StarExpr{Pos: t.Pos}})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			col := SelectCol{Expr: e}
			if p.accept(KwAs) {
				a, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				col.Alias = a.Text
			}
			cols = append(cols, col)
		}
		if !p.accept(COMMA) {
			return cols, nil
		}
	}
}

// parseExprList leaves p.height at the tallest element's.
func (p *parser) parseExprList() ([]Expr, error) {
	var out []Expr
	h := 0
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		h = max(h, p.height)
		if !p.accept(COMMA) {
			p.height = h
			return out, nil
		}
	}
}

// ---- expression grammar (precedence climbing) ----
//
// expr     := orExpr
// orExpr   := andExpr { OR andExpr }
// andExpr  := notExpr { AND notExpr }
// notExpr  := NOT notExpr | cmpExpr
// cmpExpr  := addExpr [ (==|!=|<|<=|>|>=) addExpr ]
// addExpr  := mulExpr { (+|-) mulExpr }
// mulExpr  := unary { (*|/) unary }
// unary    := - unary | primary
// primary  := NUMBER | TIME | infinity | true | false | IDENT[.IDENT]
//           | IDENT(args) | ( expr )

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error)  { return p.parseChain(p.parseAnd, KwOr) }
func (p *parser) parseAnd() (Expr, error) { return p.parseChain(p.parseNot, KwAnd) }
func (p *parser) parseNot() (Expr, error) { return p.parsePrefix(KwNot, p.parseNot, p.parseCmp) }

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case EQ, NE, LT, LE, GT, GE:
		return p.parseOperand(l, p.parseAdd)
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) { return p.parseChain(p.parseMul, PLUS, MINUS) }
func (p *parser) parseMul() (Expr, error) { return p.parseChain(p.parseUnary, STAR, SLASH) }
func (p *parser) parseUnary() (Expr, error) {
	return p.parsePrefix(MINUS, p.parseUnary, p.parsePrimary)
}

// parseChain parses operand { op operand } for the given operators into
// a left-deep tree.
func (p *parser) parseChain(operand func() (Expr, error), ops ...Kind) (Expr, error) {
	l, err := operand()
	for err == nil && slices.Contains(ops, p.cur().Kind) {
		l, err = p.parseOperand(l, operand)
	}
	return l, err
}

// parseOperand consumes the operator under the cursor and its right
// operand, and builds the binary node over l.
func (p *parser) parseOperand(l Expr, operand func() (Expr, error)) (Expr, error) {
	op, lh := p.next(), p.height
	r, err := operand()
	if err != nil {
		return nil, err
	}
	if err := p.grow(op.Pos, max(lh, p.height)); err != nil {
		return nil, err
	}
	return &BinExpr{Op: op.Kind, L: l, R: r, Pos: op.Pos}, nil
}

// parsePrefix parses "op self" when the cursor is at the prefix operator
// op, and rest otherwise.
func (p *parser) parsePrefix(op Kind, self, rest func() (Expr, error)) (Expr, error) {
	if !p.at(op) {
		return rest()
	}
	t := p.next()
	if err := p.enter(t.Pos); err != nil {
		return nil, err
	}
	x, err := self()
	p.depth--
	if err != nil {
		return nil, err
	}
	if err := p.grow(t.Pos, p.height); err != nil {
		return nil, err
	}
	return &UnaryExpr{Op: op, X: x, Pos: t.Pos}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	p.height = 1
	switch t.Kind {
	case NUMBER:
		p.next()
		return &NumberLit{Value: t.Num, Pos: t.Pos}, nil
	case TIME:
		p.next()
		return &NumberLit{Value: t.Num, Text: t.Text, Pos: t.Pos}, nil
	case KwInfinity:
		p.next()
		return &InfinityLit{Pos: t.Pos}, nil
	case KwTrue:
		p.next()
		return &BoolLit{Value: true, Pos: t.Pos}, nil
	case KwFalse:
		p.next()
		return &BoolLit{Value: false, Pos: t.Pos}, nil
	case LPAREN:
		p.next()
		if err := p.enter(t.Pos); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		p.depth--
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		p.next()
		if p.accept(DOT) {
			col, err := p.expect(IDENT)
			if err != nil {
				// Allow R1.COUNT where COUNT lexes as IDENT; aggregates
				// are plain identifiers so nothing special needed — but a
				// keyword after '.' is an error.
				return nil, err
			}
			return &Dotted{Base: t.Text, Col: col.Text, Pos: t.Pos}, nil
		}
		if p.at(LPAREN) {
			p.next()
			var args []Expr
			if !p.at(RPAREN) {
				if err := p.enter(t.Pos); err != nil {
					return nil, err
				}
				var err error
				args, err = p.parseExprList()
				p.depth--
				if err != nil {
					return nil, err
				}
				if err := p.grow(t.Pos, p.height); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return &CallExpr{Name: t.Text, Args: args, Pos: t.Pos}, nil
		}
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	default:
		return nil, errf(t.Pos, "expected an expression, found %v", t)
	}
}

// MustParse parses or panics; for tests and examples with known-good
// sources.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("lang.MustParse: %v\nsource:\n%s", err, indentSrc(src)))
	}
	return p
}

func indentSrc(src string) string {
	return "  " + strings.ReplaceAll(src, "\n", "\n  ")
}
