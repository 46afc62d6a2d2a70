package perfq

import (
	"os"
	"path/filepath"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/kvstore"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
)

// requireRunnablePlan asserts what a successful Compile promises the
// packet path: every expression in the plan has its bytecode (diffPlan
// checks "a code is nil iff its expression is" per stage and runs every
// code, fold body and merge coefficient against the tree interpreter, so
// a missing or uncompiled one fails there), every switch-side predicate
// is the member's own code and block-evaluable, and the datapath accepts
// the plan.
func requireRunnablePlan(t *testing.T, plan *compiler.Plan, recs []Record) {
	t.Helper()
	diffPlan(t, plan, recs)
	for _, st := range plan.Stages {
		if st.Fold != nil && st.Fold.Code == nil {
			t.Fatalf("stage %s: fold has no code", st.Name)
		}
	}
	for _, sp := range plan.Programs {
		if len(sp.MemberWhere) != len(sp.Members) {
			t.Fatalf("%s: %d member guards for %d members", sp.Fold.Name(), len(sp.MemberWhere), len(sp.Members))
		}
		for i, w := range sp.MemberWhere {
			if w != sp.Members[i].WhereCode {
				t.Fatalf("%s: member %d guard is not the stage's WHERE code", sp.Fold.Name(), i)
			}
			if w != nil && !w.Vectorizable() {
				t.Fatalf("%s: member %d guard is not block-evaluable:\n%v", sp.Fold.Name(), i, w)
			}
		}
	}
	if _, err := switchsim.New(plan, switchsim.Config{Geometry: kvstore.SetAssociative(64, 4)}); err != nil {
		t.Fatalf("switchsim.New rejected a compiled plan: %v", err)
	}
}

// FuzzCompile feeds arbitrary bytes to the query-text boundary: Compile
// must not panic, and whatever it accepts must be a plan the packet path
// can run on bytecode alone.
func FuzzCompile(f *testing.F) {
	for _, ex := range queries.Fig2 {
		f.Add([]byte(ex.Source))
	}
	f.Add([]byte(queries.LossByQueue))
	files, err := filepath.Glob("testdata/*.pq")
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata/*.pq seeds (%v)", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, site := range limitSites {
		f.Add([]byte(site.query(site.limit)))
		f.Add([]byte(site.query(site.limit + 1)))
	}
	f.Add([]byte(aggregateColumnCalls))
	recs := []Record{
		{},
		{Tin: 10, Tout: 25, PktLen: 1500, TCPSeq: 7, PayloadLen: 512, Proto: 6, QSizeIn: 30000},
		{Tin: 1e9, Tout: Infinity, PktLen: 64, TCPSeq: 1 << 30, Proto: 17, SrcPort: 53},
		{Tin: 123456789, Tout: 123456790, TCPSeq: 4294967295, PayloadLen: 1, Proto: 6},
	}

	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 4<<10 {
			t.Skip("over 4 KB")
		}
		q, err := Compile(string(src))
		if err != nil {
			return
		}
		requireRunnablePlan(t, q.Plan(), recs)
	})
}
