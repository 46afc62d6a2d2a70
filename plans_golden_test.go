package perfq

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"perfq/internal/fold"
	"perfq/internal/queries"
)

// goldenPlanSources is every query the repository ships, in a fixed
// order: Fig. 2, the per-queue loss pipeline, testdata/*.pq and the
// examples' embedded sources.
func goldenPlanSources(t *testing.T) [][2]string {
	t.Helper()
	var out [][2]string
	for _, ex := range queries.Fig2 {
		out = append(out, [2]string{"fig2 " + ex.Name, ex.Source})
	}
	out = append(out, [2]string{"queries.LossByQueue", queries.LossByQueue})
	files, err := filepath.Glob("testdata/*.pq")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/*.pq (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{path, string(src)})
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples/*/main.go (%v)", err)
	}
	for _, path := range mains {
		srcs := exampleQuerySources(t, path)
		names := make([]string, 0, len(srcs))
		for name := range srcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, [2]string{path + " " + name, srcs[name]})
		}
	}
	return out
}

// renderPlans writes, per query, what Describe prints and then every
// stage's lowered expressions through the fold IR printer.
func renderPlans(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, q := range goldenPlanSources(t) {
		name, src := q[0], q[1]
		cq, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "=== %s\n", name)
		cq.Describe(&b)
		for _, st := range cq.plan.Stages {
			fmt.Fprintf(&b, "stage %s\n", st.Name)
			if st.Where != nil {
				fmt.Fprintf(&b, "  Where: %v\n", st.Where)
			}
			for i, e := range st.Cols {
				fmt.Fprintf(&b, "  Cols[%d]: %v\n", i, e)
			}
			for i, e := range st.JoinCols {
				fmt.Fprintf(&b, "  JoinCols[%d]: %v\n", i, e)
			}
			if st.JoinWhere != nil {
				fmt.Fprintf(&b, "  JoinWhere: %v\n", st.JoinWhere)
			}
			for i, oc := range st.Out {
				fmt.Fprintf(&b, "  Out[%d] %s: %v\n", i, oc.Name, oc.Expr)
			}
			if st.Fold != nil {
				writeGoldenFold(&b, st.Fold)
			}
		}
		for i, sp := range cq.plan.Programs {
			fmt.Fprintf(&b, "store %d\n", i)
			writeGoldenFold(&b, sp.Fold)
		}
	}
	return b.String()
}

// writeGoldenFold writes a fold's program, merge class and, when linear,
// its coefficients.
func writeGoldenFold(b *strings.Builder, f *fold.Func) {
	fmt.Fprintf(b, "  Fold: %v S0=%v merge=%v\n", f.Prog, f.Prog.S0, f.Merge)
	if f.Merge != fold.MergeLinear {
		return
	}
	ls := f.Linear
	fmt.Fprintf(b, "  A=%v B=%v hist=%v first=%v\n", ls.A, ls.B, ls.HistVars, ls.NeedsFirstPacket)
}

// TestPlansGolden: every shipped query compiles to the plan recorded in
// testdata/plans.golden — the front end may be rewritten, the packet path
// it feeds may not move.
func TestPlansGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderPlans(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plans differ from testdata/plans.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("plans differ from testdata/plans.golden in length: %d lines, want %d", len(gl), len(wl))
}
