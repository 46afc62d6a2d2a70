package lang

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"perfq/internal/queries"
)

// fig2Sources holds the paper's example queries (Fig. 2), written in this
// implementation's concrete syntax. The "per-flow high latency" example
// groups R1 by (pkt_uniq, 5tuple) because pkt_uniq here is a single opaque
// ID rather than a header tuple; the paper assumes pkt_uniq includes the
// 5-tuple.
var fig2Sources = map[string]string{
	"per-flow counters": `SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip`,

	"latency ewma": `
def ewma(lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

const alpha = 0.125
SELECT 5tuple, ewma GROUPBY 5tuple
`,

	"tcp out of sequence": `
def outofseq((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq:
        oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == 6
`,

	"tcp non-monotonic": `
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6
`,

	"per-flow high latency packets": `
const L = 1ms
def sum_lat(lat, (tin, tout)): lat = lat + tout - tin
R1 = SELECT pkt_uniq, 5tuple, sum_lat GROUPBY pkt_uniq, 5tuple
R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE lat > L
`,

	"per-flow loss rate": `
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.count / R1.count FROM R1 JOIN R2 ON 5tuple
`,

	"high 99th percentile queue size": `
const K = 20000
def perc((tot, high), qin):
    if qin > K:
        high = high + 1
    tot = tot + 1

R1 = SELECT qid, perc GROUPBY qid
R2 = SELECT * FROM R1 WHERE perc.high / perc.tot > 0.01
`,
}

func TestFig2QueriesParseAndCheck(t *testing.T) {
	for name, src := range fig2Sources {
		prog, err := Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		if _, err := Check(prog); err != nil {
			t.Errorf("%s: check: %v", name, err)
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := Lex("SELECT srcip, 5tuple WHERE tout - tin > 1ms # comment\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwSelect, IDENT, COMMA, IDENT, KwWhere, IDENT, MINUS, IDENT, GT, TIME, NEWLINE, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i], k)
		}
	}
	if toks[3].Text != "5tuple" {
		t.Errorf("5tuple lexed as %q", toks[3].Text)
	}
	if toks[9].Num != 1e6 {
		t.Errorf("1ms = %v ns, want 1e6", toks[9].Num)
	}
}

func TestLexerDurations(t *testing.T) {
	cases := map[string]float64{
		"100ns": 100, "20us": 20e3, "1ms": 1e6, "2s": 2e9, "1.5ms": 1.5e6,
	}
	for src, want := range cases {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if toks[0].Kind != TIME || toks[0].Num != want {
			t.Errorf("%s = %v (%v), want %v", src, toks[0].Num, toks[0].Kind, want)
		}
	}
}

func TestLexerIndentation(t *testing.T) {
	src := "def f(s, x):\n    s = s + 1\n    if x > 2:\n        s = 0\nSELECT COUNT GROUPBY srcip\n"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	indents, dedents := 0, 0
	for _, tk := range toks {
		switch tk.Kind {
		case INDENT:
			indents++
		case DEDENT:
			dedents++
		}
	}
	if indents != 2 || dedents != 2 {
		t.Errorf("indents=%d dedents=%d, want 2/2 in %v", indents, dedents, toks)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"a ! b", "a @ b", "    leading indent"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded", src)
		}
	}
}

func TestLexerParenSuppressesNewline(t *testing.T) {
	toks, err := Lex("def f((a,\n  b), x): a = x\n")
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range toks {
		if tk.Kind == NEWLINE && i < len(toks)-2 && toks[i+1].Kind == IDENT && toks[i+1].Text == "b" {
			t.Error("newline inside parens not suppressed")
		}
	}
}

// largeNumber is a constant the printer once wrote as 1e+07, which
// reparses as the identifier 1e plus 7.
const largeNumber = "const A = 10000000\nSELECT COUNT GROUPBY srcip WHERE pkt_len < A\n"

func TestParsePrintFixpoint(t *testing.T) {
	srcs := map[string]string{"large number": largeNumber}
	for name, src := range fig2Sources {
		srcs[name] = src
	}
	for name, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { checkParsePrint(t, src) })
	}
}

// checkParsePrint: if src parses, its printed form parses and prints
// identically.
func checkParsePrint(t *testing.T, src string) {
	t.Helper()
	p1, err := Parse(src)
	if err != nil {
		return
	}
	printed := p1.String()
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed form failed: %v\n%s", err, printed)
	}
	if got := p2.String(); got != printed {
		t.Fatalf("print∘parse not a fixpoint:\n%s\nvs\n%s", printed, got)
	}
}

// FuzzParsePrint holds the printer to writing what the lexer and parser
// read back as the same program, from every shipped query on.
func FuzzParsePrint(f *testing.F) {
	f.Add(largeNumber)
	for _, src := range fig2Sources {
		f.Add(src)
	}
	for _, ex := range queries.Fig2 {
		f.Add(ex.Source)
	}
	f.Add(queries.LossByQueue)
	files, _ := filepath.Glob("../../testdata/*.pq")
	mains, _ := filepath.Glob("../../examples/*/main.go")
	if len(files) == 0 || len(mains) == 0 {
		f.Fatalf("no shipped queries: %d .pq files, %d examples", len(files), len(mains))
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// The examples' queries are backquoted Go constants; a %d
	// placeholder is filled with 1.
	lit := regexp.MustCompile("`[^`]*SELECT[^`]*`")
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range lit.FindAllString(string(src), -1) {
			f.Add(strings.ReplaceAll(strings.Trim(q, "`"), "%d", "1"))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip("over 4 KB")
		}
		checkParsePrint(t, src)
	})
}

func TestParseFunctionalIf(t *testing.T) {
	src := "def f(s, pkt_len): if pkt_len > 2 then s = s + 1 else s = s - 1\nSELECT f GROUPBY srcip\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fd := prog.Folds[0]
	ifs, ok := fd.Body[0].(*IfStmt)
	if !ok {
		t.Fatalf("body[0] is %T", fd.Body[0])
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("then/else arms: %d/%d", len(ifs.Then), len(ifs.Else))
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
}

func TestParsePythonicElse(t *testing.T) {
	src := `
def f(s, pkt_len):
    if pkt_len > 2:
        s = s + 1
    else:
        s = s - 1

SELECT f GROUPBY srcip
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := prog.Folds[0].Body[0].(*IfStmt)
	if len(ifs.Else) != 1 {
		t.Fatalf("else arm missing: %+v", ifs)
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	cases := []string{
		"SELECT FROM",                      // missing columns
		"R1 = ",                            // missing query
		"def f(): x = 1\nSELECT COUNT",     // missing params
		"SELECT a WHERE WHERE",             // double where
		"const = 3",                        // missing name
		"def f(s, x):\n s = \nSELECT f",    // missing rhs
		"bogus",                            // bare ident
		"SELECT COUNT GROUPBY a GROUPBY b", // only one groupby… resolved below
	}
	for _, src := range cases {
		_, err := Parse(src)
		if err == nil {
			// "GROUPBY a GROUPBY b" parses the second clause path; it is a
			// checker error instead.
			if strings.Contains(src, "GROUPBY a GROUPBY b") {
				continue
			}
			t.Errorf("Parse(%q) succeeded", src)
			continue
		}
		le, ok := err.(*Error)
		if !ok {
			t.Errorf("Parse(%q) error %T lacks a position", src, err)
			continue
		}
		if le.Pos.Line < 1 {
			t.Errorf("Parse(%q) bad position %v", src, le.Pos)
		}
	}
}

func TestCheckerCatchesSemanticErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"unknown field", "SELECT bogus_field GROUPBY srcip", "not a GROUPBY key"},
		{"unknown groupby field", "SELECT COUNT GROUPBY nosuch", "not in the packet-performance schema"},
		{"unknown table", "SELECT COUNT FROM R9 GROUPBY srcip", "not T or a previously defined query"},
		{"forward reference", "R2 = SELECT count FROM R1\nR1 = SELECT COUNT GROUPBY srcip", "not T or a previously defined query"},
		{"redefined query", "R1 = SELECT COUNT GROUPBY srcip\nR1 = SELECT COUNT GROUPBY dstip", "redefined"},
		{"redefined const", "const a = 1\nconst a = 2\nSELECT COUNT GROUPBY srcip", "redefined"},
		{"assign to row param", "def f(s, x): x = 1\nSELECT f GROUPBY srcip", "row parameter"},
		{"unknown var in fold", "def f(s, x): s = y\nSELECT f GROUPBY srcip", "not a parameter"},
		{"bool into state", "def f(s, x): s = x > 1\nSELECT f GROUPBY srcip", "numeric"},
		{"numeric condition", "def f(s, x):\n    if x:\n        s = 1\nSELECT f GROUPBY srcip", "boolean"},
		{"fold param not a field", "def f(s, nosuchfield): s = s + nosuchfield\nSELECT f GROUPBY srcip", "not a schema field"},
		{"where not boolean", "SELECT COUNT GROUPBY srcip WHERE tout - tin", "boolean"},
		{"ewma alpha out of range", "SELECT EWMA(tout - tin, 2) GROUPBY srcip", "alpha"},
		{"count with args", "SELECT COUNT(srcip) GROUPBY srcip", "no arguments"},
		{"join on partial key", "R1 = SELECT COUNT GROUPBY srcip, dstip\nR2 = SELECT COUNT GROUPBY srcip, dstip\nR3 = SELECT R2.count FROM R1 JOIN R2 ON srcip", "full GROUPBY key"},
		{"join of non-group", "R1 = SELECT srcip WHERE tout == infinity\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT R2.count FROM R1 JOIN R2 ON srcip", "GROUPBY results"},
		{"ambiguous join column", "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT count FROM R1 JOIN R2 ON srcip", "ambiguous"},
		{"no queries", "const a = 1", "no queries"},
		{"star in groupby", "SELECT * GROUPBY srcip", "not allowed in a GROUPBY"},
		{"agg over T in plain select", "SELECT SUM(pkt_len)", "GROUPBY select list"},
		{"duplicate groupby", "SELECT COUNT GROUPBY srcip WHERE proto == 6 GROUPBY dstip", "duplicate GROUPBY"},
		{"5tuple not in key", "SELECT 5tuple, COUNT GROUPBY srcip", "not in the GROUPBY key"},
		{"boolean negated in a join column", "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT -(R1.count > 1) AS x FROM R1 JOIN R2 ON srcip", "negation needs a numeric operand"},
		{"booleans compared in a join WHERE", "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT R1.count AS x FROM R1 JOIN R2 ON srcip WHERE (R1.count > 1) == (R2.count > 1)", "comparison needs numeric operands"},
		{"scalar function arity", "SELECT abs(tin, tout)", "abs takes 1 argument"},
		{"scalar function arity in a join", "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip\nR3 = SELECT max(R1.count) AS x FROM R1 JOIN R2 ON srcip", "max takes 2 arguments"},
		{"scalar function arity in a fold", "def f(acc, (tin)):\n    acc = max(acc)\nSELECT srcip, f GROUPBY srcip", "max takes 2 arguments"},
		{"one-argument MAX over T", "SELECT MAX(pkt_len)", "GROUPBY select list"},
		{"one-argument max over a derived table", "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT srcip FROM R1 WHERE max(foo) > 1", "max(foo) does not match any column of R1"},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			// Some cases fail at parse time; ensure message still matches.
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("%s: parse error %q does not mention %q", c.name, err, c.frag)
			}
			continue
		}
		_, err = Check(prog)
		if err == nil {
			t.Errorf("%s: Check accepted invalid program", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

// TestFoldStateCountCheckedFirst: a fold with more state variables than
// fold.MaxState is rejected at its header, before its body is lowered —
// so a body naming an unknown identifier gets the state-count error.
func TestFoldStateCountCheckedFirst(t *testing.T) {
	src := "def f((a, b, c, d, e, g, h, i, j), tin):\n    a = nosuch\nSELECT 5tuple, f GROUPBY 5tuple\n"
	if _, err := Check(MustParse(src)); err == nil || !strings.Contains(err.Error(), "fold f: 9 state variables (max 8)") {
		t.Fatalf("Check: %v, want the state-count error", err)
	}
}

func TestCheckedSchemas(t *testing.T) {
	src := fig2Sources["per-flow loss rate"]
	chk, err := Check(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	r1 := chk.ByName["R1"]
	if r1 == nil || !r1.IsGroup {
		t.Fatal("R1 missing or not a group query")
	}
	wantCols := []string{"srcip", "dstip", "srcport", "dstport", "proto", "count"}
	if len(r1.Schema) != len(wantCols) {
		t.Fatalf("R1 schema: %s", schemaNames(r1.Schema))
	}
	for i, w := range wantCols {
		if r1.Schema[i].Name != w {
			t.Errorf("R1 col %d = %q, want %q", i, r1.Schema[i].Name, w)
		}
	}
	for i := 0; i < 5; i++ {
		if !r1.Schema[i].IsKey {
			t.Errorf("R1 col %d should be a key", i)
		}
	}

	r3 := chk.ByName["R3"]
	if r3 == nil || r3.Left != r1 || r3.Right != chk.ByName["R2"] {
		t.Fatal("R3 join inputs wrong")
	}
	if r3.OnCols != 5 {
		t.Errorf("R3 OnCols = %d, want 5", r3.OnCols)
	}
	if len(r3.Schema) != 6 {
		t.Errorf("R3 schema: %s", schemaNames(r3.Schema))
	}

	// Results: only R3 is a sink.
	if len(chk.Results) != 1 || chk.Results[0] != r3 {
		t.Errorf("Results = %v", chk.Results)
	}
}

func TestUserFoldSchema(t *testing.T) {
	chk, err := Check(MustParse(fig2Sources["high 99th percentile queue size"]))
	if err != nil {
		t.Fatal(err)
	}
	r1 := chk.ByName["R1"]
	// qid key + tot + high columns.
	if len(r1.Schema) != 3 {
		t.Fatalf("R1 schema: %s", schemaNames(r1.Schema))
	}
	if columnIndex(r1.Schema, "perc.high") < 0 || columnIndex(r1.Schema, "tot") < 0 {
		t.Errorf("fold state columns not addressable: %s", schemaNames(r1.Schema))
	}
	r2 := chk.ByName["R2"]
	if len(r2.Schema) != 3 {
		t.Errorf("R2 (* select) schema: %s", schemaNames(r2.Schema))
	}
	if len(chk.Results) != 1 || chk.Results[0] != r2 {
		t.Error("R2 should be the only result")
	}
}

func TestAliases(t *testing.T) {
	src := "R1 = SELECT SUM(pkt_len) AS bytes GROUPBY srcip\nR2 = SELECT * FROM R1 WHERE bytes > 1000"
	chk, err := Check(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	r1 := chk.ByName["R1"]
	if columnIndex(r1.Schema, "bytes") < 0 {
		t.Errorf("alias not in schema: %s", schemaNames(r1.Schema))
	}
	if columnIndex(r1.Schema, "sum(pkt_len)") < 0 {
		t.Errorf("canonical name lost after alias: %s", schemaNames(r1.Schema))
	}
}

func TestConstFolding(t *testing.T) {
	src := "const a = 2\nconst b = a * 3 + 1\nconst c = -b / 2\nSELECT COUNT GROUPBY srcip WHERE pkt_len > c"
	chk, err := Check(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if chk.Consts["b"] != 7 || chk.Consts["c"] != -3.5 {
		t.Errorf("consts = %v", chk.Consts)
	}
}

func TestWhereReferencesUpstreamAggregate(t *testing.T) {
	// Fig. 2's "WHERE SUM(tout-tin) > L" over a derived table.
	src := `
const L = 5ms
R1 = SELECT pkt_uniq, 5tuple, SUM(tout - tin) GROUPBY pkt_uniq, 5tuple
R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE SUM(tout - tin) > L
`
	if _, err := Check(MustParse(src)); err != nil {
		t.Fatal(err)
	}
}

func TestQueryOrderClauseVariants(t *testing.T) {
	// The Fig. 1 grammar puts FROM after GROUPBY; accept both orders.
	variants := []string{
		"SELECT COUNT GROUPBY srcip FROM T",
		"SELECT COUNT FROM T GROUPBY srcip",
		"SELECT COUNT GROUPBY srcip",
		"select count groupby srcip where proto == 17",
	}
	for _, src := range variants {
		if _, err := Check(MustParse(src)); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// TestParseDepthLimit: every construct that nests — parentheses, prefix
// operators, call arguments, if statements, and the left-deep tree a
// binary chain parses to — is held to MaxExprDepth, at exactly that depth.
func TestParseDepthLimit(t *testing.T) {
	rep := strings.Repeat
	for _, shape := range []struct {
		name  string
		limit int // deepest size that parses
		src   func(n int) string
	}{
		{"parentheses", MaxExprDepth, func(n int) string { return "SELECT " + rep("(", n) + "tin" + rep(")", n) }},
		{"negation", MaxExprDepth - 1, func(n int) string { return "SELECT " + rep("-", n) + "tin" }},
		{"not", MaxExprDepth - 2, func(n int) string { return "SELECT COUNT GROUPBY srcip WHERE " + rep("not ", n) + "tin > 0" }},
		{"call arguments", MaxExprDepth - 1, func(n int) string { return "SELECT " + rep("f(", n) + "tin" + rep(")", n) }},
		{"binary chain", MaxExprDepth, func(n int) string { return "SELECT tin" + rep(" * tin", n-1) }},
		{"chain under parentheses", MaxExprDepth - 1, func(n int) string { return "SELECT (tin" + rep(" - tin", n-1) + ") + tin" }},
		{"if statements", MaxExprDepth, func(n int) string {
			return "def f(s, (tin)): " + rep("if tin > 0 then ", n) + "s = 1\nSELECT srcip, f GROUPBY srcip"
		}},
	} {
		if _, err := Parse(shape.src(shape.limit)); err != nil {
			t.Errorf("%s at the limit: %v", shape.name, err)
		}
		_, err := Parse(shape.src(shape.limit + 1))
		if err == nil || !strings.Contains(err.Error(), errTooDeep(Pos{}).Msg) {
			t.Errorf("%s one past the limit: got %v, want the depth error", shape.name, err)
		}
	}
}

// TestParseStopsLexingAtError: the parser pulls tokens from the lexer as
// it goes, so a 2 MB query rejected at MaxExprDepth has lexed only the
// tokens up to that point (2 MB and 6 MB) — lexing the whole input
// first allocated ≈ 504 MB for either of these before the depth error.
func TestParseStopsLexingAtError(t *testing.T) {
	const n = 1_000_000
	for name, src := range map[string]string{
		"parentheses": "SELECT " + strings.Repeat("(", n) + "tin" + strings.Repeat(")", n),
		"chain":       "SELECT COUNT GROUPBY srcip WHERE 1" + strings.Repeat("+1", n) + " > 0",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(src)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), errTooDeep(Pos{}).Msg) {
			t.Errorf("%s: got %v, want the depth error", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%s: Parse allocated %d MB, want at most 16 MB", name, got>>20)
		}
	}
}

// TestPrinterLinearInDepth: every node prints through one builder, so a
// deeper expression's text grows by the same bytes per level, and checking
// it (which names the column by printing it) allocates in proportion.
// Nesting Sprintf copied each operand once per ancestor: about 100× the
// allocation for 10× the depth.
func TestPrinterLinearInDepth(t *testing.T) {
	check := func(depth int) (text string, alloc uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prog, err := Parse("SELECT " + strings.Repeat("-", depth) + "tin")
		if err == nil {
			_, err = Check(prog)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return prog.String(), after.TotalAlloc - before.TotalAlloc
	}
	const short, long = 1000, MaxExprDepth - 1
	shortText, shortAlloc := check(short)
	longText, longAlloc := check(long)
	if got, want := len(longText)-len(shortText), len("(-)")*(long-short); got != want {
		t.Errorf("%d more levels printed %d more bytes, want %d", long-short, got, want)
	}
	if longAlloc > 20*shortAlloc {
		t.Errorf("checking depth %d allocated %d B, %.0f× depth %d's %d B; want at most 20×",
			long, longAlloc, float64(longAlloc)/float64(shortAlloc), short, shortAlloc)
	}
}
