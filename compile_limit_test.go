package perfq

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfq/internal/lang"
	"perfq/internal/queries"
)

// The fold VM has 16 registers and nothing runs behind it, so an
// expression that needs a 17th is a compile error. This file pins that
// boundary at every site query text can put an expression: the deepest
// shape that fits compiles, runs and matches ground truth (and is diffed
// against the tree interpreter by TestFig2VMMatchesInterpreter); one level
// deeper is rejected with the stage and the limit in the message.

// nest returns term + (term + ( … leaf)) nested depth levels. Each level
// parks its left operand one register up, so the shape needs depth+1
// registers.
func nest(term, leaf string, depth int) string {
	return strings.Repeat("("+term+" + ", depth) + leaf + strings.Repeat(")", depth)
}

// limitSite is one place an expression reaches the VM from query text.
// Output projections over state are not in the table: the compiler
// generates them (a state word, or AVG's sum/count), so no query text
// makes one deep; compiler.TestOutputProjectionOverLimit covers the site.
type limitSite struct {
	name  string
	stage string // the stage a rejection must name
	where string // and the site within it
	limit int    // deepest nesting that fits the register file
	query func(depth int) string
}

var limitSites = []limitSite{
	{"built-in fold argument", "_1", "fold body", 14, func(d int) string {
		// SUM(e) lowers to s = s + e: one register more than e alone.
		return "SELECT srcip, SUM(" + nest("pkt_len", "tin", d) + ") GROUPBY srcip\n"
	}},
	{"user-defined fold body", "_1", "fold body", 15, func(d int) string {
		return "def deep(acc, (pkt_len)):\n    acc = " + nest("pkt_len", "acc", d) + "\nSELECT srcip, deep GROUPBY srcip\n"
	}},
	{"WHERE over T", "_1", "WHERE", 15, func(d int) string {
		return "SELECT COUNT GROUPBY srcip WHERE " + nest("pkt_len", "tin", d) + " > 0\n"
	}},
	{"select-over-T column", "_1", "column 2", 15, func(d int) string {
		return "SELECT srcip, " + nest("pkt_len", "tin", d) + " AS x WHERE proto == 6\n"
	}},
	{"derived-stage WHERE", "R2", "WHERE", 15, func(d int) string {
		return "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT * FROM R1 WHERE " + nest("count", "count", d) + " > 0\n"
	}},
	{"JOIN predicate", "R3", "WHERE", 15, func(d int) string {
		return "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip WHERE proto == 6\n" +
			"R3 = SELECT R2.count / R1.count AS x FROM R1 JOIN R2 ON srcip WHERE " + nest("R1.count", "R2.count", d) + " > 0\n"
	}},
	{"JOIN column", "R3", "column 1", 15, func(d int) string {
		return "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip WHERE proto == 6\n" +
			"R3 = SELECT " + nest("R1.count", "R2.count", d) + " AS x FROM R1 JOIN R2 ON srcip\n"
	}},
}

// limitTrace is the short trace the at-the-limit queries run over.
func limitTrace(t *testing.T) []Record {
	t.Helper()
	var recs []Record
	src := DCTrace(7, 300*time.Millisecond)
	for r := (Record{}); src.Next(&r) == nil; {
		recs = append(recs, r)
	}
	if len(recs) < 500 {
		t.Fatalf("short trace: %d records", len(recs))
	}
	return recs
}

// requireRunMatchesTruth compiles src (one that sits at a limit, or
// exercises a front-end rule), runs it and compares every table with
// ground truth, whose result must not be empty.
func requireRunMatchesTruth(t *testing.T, src string, recs []Record) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("at the limit: %v", err)
	}
	got, err := q.Run(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := q.GroundTruth(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	want := allTables(truth)
	if want[q.Results()[0]].Len() == 0 {
		t.Fatal("ground truth is empty; the query does not exercise the deep expression")
	}
	for name, tab := range allTables(got) {
		requireTablesIdentical(t, name, tab, want[name])
	}
}

func TestCompileRejectsOverLimit(t *testing.T) {
	recs := limitTrace(t)
	for _, site := range limitSites {
		t.Run(site.name, func(t *testing.T) {
			_, err := Compile(site.query(site.limit + 1))
			if err == nil {
				t.Fatalf("depth %d compiled; want a rejection", site.limit+1)
			}
			for _, frag := range []string{"stage " + site.stage + ":", site.where + ":", "more than 16 registers"} {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not mention %q", err, frag)
				}
			}

			requireRunMatchesTruth(t, site.query(site.limit), recs)
		})
	}
}

// ifChain is a linear fold whose body is depth ifs nested in the then arm
// (inThen) or chained through the else arm, in Figure 1's one-line form.
// The linearity analysis turns the body into merge coefficients that are
// conditional expressions nested the same way.
func ifChain(inThen bool, depth int) string {
	var b strings.Builder
	b.WriteString("def f(acc, (pkt_len)):\n    ")
	for i := 0; i < depth; i++ {
		if inThen {
			fmt.Fprintf(&b, "if pkt_len > %d then ", 40+i)
		} else {
			fmt.Fprintf(&b, "if pkt_len > %d then acc = acc + %d else ", 1500-i, i+1)
		}
	}
	b.WriteString("acc = acc + pkt_len\nSELECT srcip, f GROUPBY srcip\n")
	return b.String()
}

// TestCompileConditionalRegisterRule pins what a conditional costs in
// registers now that it lowers to both arms and a select rather than to
// branches: the arm that needs more registers is evaluated first, into the
// destination, so ifs nested in either arm cost no depth — chains the
// branch lowering compiled at any depth still compile, stay linear with
// coefficients computed per block, and match ground truth — while the
// predicate sits two registers above the destination, and a conditional
// that does overflow is rejected naming the stage and the coefficient.
// Every shipped query compiles as it did.
func TestCompileConditionalRegisterRule(t *testing.T) {
	recs := limitTrace(t)
	for _, depth := range []int{2, 14, 15, 40} {
		for _, inThen := range []bool{true, false} {
			src := ifChain(inThen, depth)
			q, err := Compile(src)
			if err != nil {
				t.Fatalf("if chain (in then: %v) of depth %d: %v", inThen, depth, err)
			}
			if ok, why := q.plan.Programs[0].Fold.Linear.BlockEvaluable(); !q.LinearInState() || !ok {
				t.Errorf("if chain (in then: %v) of depth %d: linear %v, per-record coefficients: %q", inThen, depth, q.LinearInState(), why)
			}
			requireRunMatchesTruth(t, src, recs)
		}
	}

	// A 15-register predicate fits the fold body's branch but not the
	// coefficient's select, two registers up.
	_, err := Compile("def f(acc, (pkt_len, tin)):\n    if " + nest("pkt_len", "tin", 14) + " > 0 then acc = acc + 1\nSELECT srcip, f GROUPBY srcip\n")
	for _, frag := range []string{"stage _1:", "merge coefficient B[0]:", "more than 16 registers"} {
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("over-deep conditional: got %v, want an error mentioning %q", err, frag)
		}
	}

	shipped := map[string]string{}
	for _, ex := range queries.Fig2 {
		shipped[ex.Name] = ex.Source
	}
	files, _ := filepath.Glob("testdata/*.pq")
	mains, _ := filepath.Glob("examples/*/main.go")
	if len(files) == 0 || len(mains) == 0 {
		t.Fatal("no testdata/*.pq or examples/*/main.go found")
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		shipped[path] = string(src)
	}
	for _, path := range mains {
		for name, src := range exampleQuerySources(t, path) {
			shipped[path+" "+name] = src
		}
	}
	for name, src := range shipped {
		if _, err := Compile(src); err != nil {
			t.Errorf("%s no longer compiles: %v", name, err)
		}
	}
}

// parens is a projection wrapped in n pairs of parentheses: no deeper a
// syntax tree than the bare field, but n levels of parser recursion.
func parens(n int) string {
	return "SELECT srcip, " + strings.Repeat("(", n) + "pkt_len" + strings.Repeat(")", n) + " AS x WHERE proto == 6\n"
}

// TestCompileRejectsOverDepth: the parser and the checker's one walk
// recurse as deep as query text nests, so nesting is bounded by
// lang.MaxExprDepth and one level more is a named error — 3 M
// parentheses or a 2 M-term sum used to end the process with an
// unrecoverable stack overflow.
func TestCompileRejectsOverDepth(t *testing.T) {
	recs := limitTrace(t)
	for _, shape := range []struct {
		name    string
		query   func(n int) string
		limit   int
		hostile int
	}{
		{"parentheses", parens, lang.MaxExprDepth, 3_000_000},
		// n terms chain to height n, and the SUM call around them is one more.
		{"binary chain", sumOfTerms, lang.MaxExprDepth - 1, 2_000_000},
	} {
		t.Run(shape.name, func(t *testing.T) {
			sizes := []int{shape.limit + 1, shape.hostile}
			if testing.Short() {
				sizes = sizes[:1] // the hostile size lexes ~1 GB of tokens
			}
			for _, n := range sizes {
				_, err := Compile(shape.query(n))
				if want := fmt.Sprintf("expression nested deeper than %d", lang.MaxExprDepth); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("size %d: got %v, want an error mentioning %q", n, err, want)
				}
			}
			requireRunMatchesTruth(t, shape.query(shape.limit), recs)
		})
	}
}

// sumOfTerms is a SUM over a flat n-term sum: a left-deep chain n nodes
// tall that needs two registers however long it gets.
func sumOfTerms(n int) string {
	return "SELECT srcip, SUM(pkt_len" + strings.Repeat(" + tin", n-1) + ") GROUPBY srcip\n"
}

// nestedIfs is a linear fold that counts a packet once per level of depth
// nested ifs it passes, one "acc = acc + 1" and one "if" per level.
func nestedIfs(depth int) string {
	var b strings.Builder
	b.WriteString("def f(acc, (pkt_len)):\n")
	for i := 1; i <= depth; i++ {
		ind := strings.Repeat("    ", i)
		fmt.Fprintf(&b, "%sacc = acc + 1\n%sif pkt_len > %d:\n", ind, ind, i)
	}
	b.WriteString(strings.Repeat("    ", depth+1) + "acc = acc + 1\nSELECT srcip, f GROUPBY srcip\n")
	return b.String()
}

// TestCompileLinearInExpressionSize: compile time must grow with the
// size of the query text, not its square (constant folding used to
// re-scan the whole subtree at every node: 7.4 s for these 8000 terms;
// the linearity analysis printed both arms of every if to compare them:
// 3.5 s for these 2000 levels).
func TestCompileLinearInExpressionSize(t *testing.T) {
	for _, c := range []struct {
		name  string
		src   string
		bound time.Duration
		// skipRace: under the race detector lexing the 2000 levels of
		// indentation alone takes about a second.
		skipRace bool
	}{
		{"8000-term SUM argument", sumOfTerms(8000), 3 * time.Second, false},
		{"2000 nested ifs", nestedIfs(2000), time.Second, true},
	} {
		if c.skipRace && raceEnabled {
			continue
		}
		start := time.Now()
		if _, err := Compile(c.src); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > c.bound {
			t.Errorf("%s took %v to compile, want < %v", c.name, took, c.bound)
		}
	}
}

func BenchmarkCompileTerms(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			src := sumOfTerms(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/term")
		})
	}
}
