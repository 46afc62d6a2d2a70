package lang

import (
	"math"
	"strconv"
	"strings"
)

// Lex tokenizes src, producing a flat token stream with NEWLINE, INDENT
// and DEDENT tokens describing the block structure (Python-style, one
// indentation stack). Comments run from '#' to end of line. Newlines
// inside parentheses are suppressed so expressions can wrap.
func Lex(src string) ([]Token, error) {
	lx := newLexer(src)
	lx.token(math.MaxInt) // the whole stream
	if lx.err != nil {
		return nil, lx.err
	}
	return lx.toks, nil
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1, indents: []int{0}}
}

type lexer struct {
	src     string
	pos     int
	line    int
	col     int
	toks    []Token
	indents []int
	parens  int
	started bool  // saw a non-blank line yet
	done    bool  // the stream ends in its EOF
	err     error // what stopped the lexing early
}

// token returns token i of the stream, lexing only as far as that: the
// parser pulls its tokens through here, so lexing stops where parsing
// does. Past the end, or once lexing failed (err), it is an EOF.
func (lx *lexer) token(i int) Token {
	for len(lx.toks) <= i && lx.err == nil && !lx.done {
		lx.err = lx.step()
	}
	if i < len(lx.toks) {
		return lx.toks[i]
	}
	return Token{Kind: EOF, Pos: lx.here()}
}

func (lx *lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *lexer) emit(k Kind, text string, num float64, pos Pos) {
	lx.toks = append(lx.toks, Token{Kind: k, Text: text, Num: num, Pos: pos})
}

// step lexes one unit of the source — a line's indentation, a token, a
// blank or a comment — or, at its end, closes the stream.
func (lx *lexer) step() error {
	if lx.pos >= len(lx.src) {
		// Close the final line and any open blocks.
		lx.emitNewlineIfNeeded()
		for len(lx.indents) > 1 {
			lx.indents = lx.indents[:len(lx.indents)-1]
			lx.emit(DEDENT, "", 0, lx.here())
		}
		lx.emit(EOF, "", 0, lx.here())
		lx.done = true
		return nil
	}
	// At line start (outside parens): handle indentation.
	if lx.col == 1 && lx.parens == 0 {
		if err := lx.lineStart(); err != nil || lx.pos >= len(lx.src) {
			return err
		}
	}
	c := lx.peek()
	switch {
	case c == '#':
		for lx.pos < len(lx.src) && lx.peek() != '\n' {
			lx.advance()
		}
	case c == '\n':
		lx.advance()
		if lx.parens == 0 {
			lx.emitNewlineIfNeeded()
		}
	case c == ' ' || c == '\t' || c == '\r':
		lx.advance()
	case isDigit(c):
		return lx.lexNumber()
	case isIdentStart(c):
		lx.lexIdent()
	default:
		return lx.lexOperator()
	}
	return nil
}

// emitNewlineIfNeeded appends a NEWLINE unless the stream is empty or
// already ends with one (blank lines collapse).
func (lx *lexer) emitNewlineIfNeeded() {
	n := len(lx.toks)
	if n == 0 {
		return
	}
	switch lx.toks[n-1].Kind {
	case NEWLINE, INDENT, DEDENT:
		return
	}
	lx.emit(NEWLINE, "", 0, lx.here())
}

// lineStart measures the indentation of the upcoming line and emits
// INDENT/DEDENT tokens. Blank and comment-only lines are skipped entirely.
func (lx *lexer) lineStart() error {
	for {
		indent := 0
		for lx.pos < len(lx.src) {
			switch lx.peek() {
			case ' ':
				indent++
				lx.advance()
			case '\t':
				indent += 8 - indent%8
				lx.advance()
			default:
				goto measured
			}
		}
	measured:
		if lx.pos >= len(lx.src) {
			return nil
		}
		if lx.peek() == '\n' {
			lx.advance() // blank line
			continue
		}
		if lx.peek() == '#' {
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
			continue
		}
		cur := lx.indents[len(lx.indents)-1]
		pos := lx.here()
		switch {
		case indent > cur:
			if lx.started {
				lx.indents = append(lx.indents, indent)
				lx.emit(INDENT, "", 0, pos)
			} else if indent != 0 {
				return errf(pos, "unexpected indentation at start of program")
			}
		case indent < cur:
			for len(lx.indents) > 1 && lx.indents[len(lx.indents)-1] > indent {
				lx.indents = lx.indents[:len(lx.indents)-1]
				lx.emit(DEDENT, "", 0, pos)
			}
			if lx.indents[len(lx.indents)-1] != indent {
				return errf(pos, "inconsistent dedent")
			}
		}
		lx.started = true
		return nil
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentChar(c byte) bool  { return isIdentStart(c) || isDigit(c) }

// lexNumber scans integers, floats, duration literals (1ms, 20us, 2s,
// 100ns) and the special identifier "5tuple" (and any digit-led
// identifier, which the checker restricts to known shorthands).
func (lx *lexer) lexNumber() error {
	pos := lx.here()
	start := lx.pos
	for lx.pos < len(lx.src) && isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.pos < len(lx.src) && lx.peek() == '.' && isDigit(lx.peek2()) {
		lx.advance()
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	numText := lx.src[start:lx.pos]

	// Trailing identifier characters: either a duration unit or a
	// digit-led identifier like 5tuple.
	if lx.pos < len(lx.src) && isIdentStart(lx.peek()) {
		sufStart := lx.pos
		for lx.pos < len(lx.src) && isIdentChar(lx.peek()) {
			lx.advance()
		}
		suffix := lx.src[sufStart:lx.pos]
		if mult, ok := durationUnit(suffix); ok {
			v, err := strconv.ParseFloat(numText, 64)
			if err != nil {
				return errf(pos, "bad number %q", numText)
			}
			lx.emit(TIME, numText+suffix, v*mult, pos)
			return nil
		}
		// Digit-led identifier (e.g. 5tuple).
		lx.emit(IDENT, numText+suffix, 0, pos)
		return nil
	}

	v, err := strconv.ParseFloat(numText, 64)
	if err != nil {
		return errf(pos, "bad number %q", numText)
	}
	lx.emit(NUMBER, numText, v, pos)
	return nil
}

// durationUnit maps a unit suffix to its nanosecond multiplier.
func durationUnit(s string) (float64, bool) {
	switch s {
	case "ns":
		return 1, true
	case "us":
		return 1e3, true
	case "ms":
		return 1e6, true
	case "s":
		return 1e9, true
	default:
		return 0, false
	}
}

func (lx *lexer) lexIdent() {
	pos := lx.here()
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentChar(lx.peek()) {
		lx.advance()
	}
	text := lx.src[start:lx.pos]
	if kw, ok := keywords[strings.ToLower(text)]; ok {
		lx.emit(kw, text, 0, pos)
		return
	}
	lx.emit(IDENT, text, 0, pos)
}

func (lx *lexer) lexOperator() error {
	pos := lx.here()
	c := lx.advance()
	two := func(next byte, k2, k1 Kind) {
		if lx.pos < len(lx.src) && lx.peek() == next {
			lx.advance()
			lx.emit(k2, "", 0, pos)
			return
		}
		lx.emit(k1, "", 0, pos)
	}
	switch c {
	case '=':
		two('=', EQ, ASSIGN)
	case '!':
		if lx.pos < len(lx.src) && lx.peek() == '=' {
			lx.advance()
			lx.emit(NE, "", 0, pos)
		} else {
			return errf(pos, "unexpected '!' (use != or NOT)")
		}
	case '<':
		two('=', LE, LT)
	case '>':
		two('=', GE, GT)
	case '+':
		lx.emit(PLUS, "", 0, pos)
	case '-':
		lx.emit(MINUS, "", 0, pos)
	case '*':
		lx.emit(STAR, "", 0, pos)
	case '/':
		lx.emit(SLASH, "", 0, pos)
	case '(':
		lx.parens++
		lx.emit(LPAREN, "", 0, pos)
	case ')':
		if lx.parens > 0 {
			lx.parens--
		}
		lx.emit(RPAREN, "", 0, pos)
	case ',':
		lx.emit(COMMA, "", 0, pos)
	case ':':
		lx.emit(COLON, "", 0, pos)
	case '.':
		lx.emit(DOT, "", 0, pos)
	default:
		return errf(pos, "unexpected character %q", string(c))
	}
	return nil
}
