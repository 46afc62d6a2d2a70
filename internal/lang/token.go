// Package lang implements the declarative performance query language of §2
// (Figure 1): lexer, parser, abstract syntax tree and semantic checker,
// which resolves every name a query uses and lowers each expression to
// the fold IR in the same walk that types it.
//
// A program is a sequence of constant bindings, fold-function definitions
// and (optionally named) queries:
//
//	const alpha = 0.125
//
//	def ewma(lat_est, (tin, tout)):
//	    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
//
//	SELECT 5tuple, ewma GROUPBY 5tuple
//
// Fold bodies accept both the paper's typographies: indented Python-style
// blocks with "if cond:" / "else:", and the Figure 1 grammar's
// "if cond then stmt else stmt". SQL keywords are case-insensitive;
// "5tuple" expands to the transport five-tuple; duration literals (1ms,
// 20us, 2s) are nanosecond integers; "infinity" matches dropped packets'
// tout.
package lang

import "fmt"

// Kind enumerates token kinds.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	NEWLINE
	INDENT
	DEDENT

	IDENT  // ewma, srcip, R1, 5tuple
	NUMBER // 42, 0.125
	TIME   // 1ms, 20us → nanoseconds
	STRING // reserved

	// Punctuation and operators.
	ASSIGN // =
	EQ     // ==
	NE     // !=
	LT     // <
	LE     // <=
	GT     // >
	GE     // >=
	PLUS   // +
	MINUS  // -
	STAR   // *
	SLASH  // /
	LPAREN // (
	RPAREN // )
	COMMA  // ,
	COLON  // :
	DOT    // .

	// Keywords.
	KwSelect
	KwFrom
	KwWhere
	KwGroupBy
	KwJoin
	KwOn
	KwAnd
	KwOr
	KwNot
	KwDef
	KwIf
	KwThen
	KwElse
	KwConst
	KwTrue
	KwFalse
	KwInfinity
	KwAs
)

var kindNames = map[Kind]string{
	EOF: "end of input", NEWLINE: "newline", INDENT: "indent", DEDENT: "dedent",
	IDENT: "identifier", NUMBER: "number", TIME: "duration", STRING: "string",
	ASSIGN: "'='", EQ: "'=='", NE: "'!='", LT: "'<'", LE: "'<='", GT: "'>'", GE: "'>='",
	PLUS: "'+'", MINUS: "'-'", STAR: "'*'", SLASH: "'/'",
	LPAREN: "'('", RPAREN: "')'", COMMA: "','", COLON: "':'", DOT: "'.'",
	KwSelect: "SELECT", KwFrom: "FROM", KwWhere: "WHERE", KwGroupBy: "GROUPBY",
	KwJoin: "JOIN", KwOn: "ON", KwAnd: "AND", KwOr: "OR", KwNot: "NOT",
	KwDef: "def", KwIf: "if", KwThen: "then", KwElse: "else", KwConst: "const",
	KwTrue: "true", KwFalse: "false", KwInfinity: "infinity", KwAs: "AS",
}

// String names the kind for diagnostics.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// keywords maps lower-cased spellings to keyword kinds. SQL-flavored
// keywords are matched case-insensitively; the pythonic ones (def, if,
// else, …) conventionally appear lowercase but are accepted in any case
// for uniformity.
var keywords = map[string]Kind{
	"select": KwSelect, "from": KwFrom, "where": KwWhere,
	"groupby": KwGroupBy, "join": KwJoin, "on": KwOn,
	"and": KwAnd, "or": KwOr, "not": KwNot,
	"def": KwDef, "if": KwIf, "then": KwThen, "else": KwElse,
	"const": KwConst, "true": KwTrue, "false": KwFalse,
	"infinity": KwInfinity, "as": KwAs,
}

// Pos is a source position.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based, in bytes
}

// String formats the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexeme.
type Token struct {
	Kind Kind
	Text string  // raw text for IDENT/NUMBER/TIME
	Num  float64 // numeric value for NUMBER/TIME (TIME in nanoseconds)
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, NUMBER, TIME:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// Error is a positioned language error.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
