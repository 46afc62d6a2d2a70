package exec

import (
	"math"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/lang"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

func plan(t *testing.T, src string) *compiler.Plan {
	t.Helper()
	chk, err := lang.Check(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func rec(src byte, port uint16, tin, tout int64, plen uint32) trace.Record {
	return trace.Record{
		SrcIP: packet.Addr4{10, 0, 0, src}, DstIP: packet.Addr4{10, 0, 1, 1},
		SrcPort: port, DstPort: 80, Proto: packet.ProtoTCP,
		PktLen: plen, Tin: tin, Tout: tout,
		QID: trace.MakeQueueID(1, 0),
	}
}

func TestGroupByHandComputed(t *testing.T) {
	p := plan(t, "SELECT COUNT, SUM(pkt_len) GROUPBY srcip")
	recs := []trace.Record{
		rec(1, 10, 0, 5, 100),
		rec(1, 11, 1, 6, 200),
		rec(2, 12, 2, 7, 400),
	}
	tables, err := Run(p, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	tab := tables["_1"]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	// Sorted by srcip: 10.0.0.1 then 10.0.0.2.
	if tab.Rows[0][1] != 2 || tab.Rows[0][2] != 300 {
		t.Errorf("group 1: %v", tab.Rows[0])
	}
	if tab.Rows[1][1] != 1 || tab.Rows[1][2] != 400 {
		t.Errorf("group 2: %v", tab.Rows[1])
	}
}

func TestWhereFiltersInput(t *testing.T) {
	p := plan(t, "SELECT COUNT GROUPBY srcip WHERE tout == infinity")
	recs := []trace.Record{
		rec(1, 10, 0, 5, 100),
		rec(1, 11, 1, trace.Infinity, 100),
		rec(2, 12, 2, 7, 100),
	}
	tables, err := Run(p, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	tab := tables["_1"]
	if len(tab.Rows) != 1 || tab.Rows[0][1] != 1 {
		t.Fatalf("drop count table: %v", tab.Rows)
	}
}

func TestJoinHandComputed(t *testing.T) {
	p := plan(t, `R1 = SELECT COUNT GROUPBY srcip
R2 = SELECT COUNT GROUPBY srcip WHERE tout == infinity
R3 = SELECT R2.count / R1.count AS rate FROM R1 JOIN R2 ON srcip`)
	recs := []trace.Record{
		rec(1, 10, 0, 5, 100),
		rec(1, 11, 1, trace.Infinity, 100),
		rec(1, 12, 2, 9, 100),
		rec(2, 13, 3, 9, 100), // never dropped: excluded by inner join
	}
	tables, err := Run(p, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	tab := tables["R3"]
	if len(tab.Rows) != 1 {
		t.Fatalf("join rows: %v", tab.Rows)
	}
	if got := tab.Rows[0][1]; got != 1.0/3.0 {
		t.Errorf("loss rate = %v, want 1/3", got)
	}
}

func TestSetTableSkipsStage(t *testing.T) {
	p := plan(t, `R1 = SELECT COUNT GROUPBY srcip
R2 = SELECT * FROM R1 WHERE count > 5`)
	e := New(p)
	e.SetTable("R1", &Table{
		Schema: []string{"srcip", "count"},
		Rows:   [][]float64{{1, 10}, {2, 3}},
	})
	tables, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tab := tables["R2"]
	if len(tab.Rows) != 1 || tab.Rows[0][1] != 10 {
		t.Fatalf("collector-mode filter: %v", tab.Rows)
	}
}

func TestTableSortDeterministic(t *testing.T) {
	tab := &Table{Rows: [][]float64{{2, 1}, {1, 9}, {1, 3}}}
	tab.Sort()
	want := [][]float64{{1, 3}, {1, 9}, {2, 1}}
	for i := range want {
		if tab.Rows[i][0] != want[i][0] || tab.Rows[i][1] != want[i][1] {
			t.Fatalf("sorted: %v", tab.Rows)
		}
	}
}

// TestTableSortTotalWithNaN pins the total-order contract: NaN sorts
// smallest and every permutation of the same rows sorts identically —
// the property the sharded merge depends on. The old `a != b`
// comparator was not antisymmetric under NaN, so sort output depended
// on the input permutation.
func TestTableSortTotalWithNaN(t *testing.T) {
	nan := math.NaN()
	rows := [][]float64{{1, nan}, {nan, 2}, {1, 3}, {nan, 1}, {0, 5}, {1, nan}}
	perm := func(order []int) *Table {
		tab := &Table{Rows: make([][]float64, len(order))}
		for i, j := range order {
			tab.Rows[i] = rows[j]
		}
		tab.Sort()
		return tab
	}
	ref := perm([]int{0, 1, 2, 3, 4, 5})
	// NaN first within each column, then ascending.
	if !math.IsNaN(ref.Rows[0][0]) || !math.IsNaN(ref.Rows[1][0]) {
		t.Fatalf("NaN rows not smallest: %v", ref.Rows)
	}
	perms := [][]int{{5, 4, 3, 2, 1, 0}, {2, 0, 4, 5, 1, 3}, {3, 5, 0, 4, 2, 1}}
	for _, order := range perms {
		got := perm(order)
		for i := range ref.Rows {
			for j := range ref.Rows[i] {
				if math.Float64bits(got.Rows[i][j]) != math.Float64bits(ref.Rows[i][j]) {
					t.Fatalf("permutation %v sorted differently:\n got %v\nwant %v", order, got.Rows, ref.Rows)
				}
			}
		}
	}
}
