package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program (DRST's rule: attribution without instrumenting
// the pipeline). Spans of one workload window share (Workload, Window).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a workload's root span
	Workload string `json:"workload"`
	Window   int    `json:"window"` // window index, -1 outside any window
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"` // since the recorder was created
	EndNs    int64  `json:"end_ns"`
	Records  int64  `json:"records"`
	// Agg marks a span whose duration is time accumulated over many short
	// calls inside its parent (one per record or eviction), laid out from
	// the parent's start: its length is measured, its position is not.
	Agg bool `json:"agg,omitempty"`
}

func (s *span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent, window int, name, layer string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Workload: r.workload, Window: window,
		Name: name, Layer: layer, StartNs: r.now(),
	})
	return id
}

// end closes span id.
func (r *recorder) end(id int, records int64) {
	s := &r.spans[id]
	s.EndNs = r.now()
	s.Records = records
}

// agg records accumulated time as a child laid out from after, the end
// of the previous aggregate under the same parent (or the parent's
// start), and returns its own end for the next one.
func (r *recorder) agg(parent, window int, name, layer string, after, durNs, records int64) int64 {
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Workload: r.workload, Window: window,
		Name: name, Layer: layer, StartNs: after, EndNs: after + durNs,
		Records: records, Agg: true,
	})
	return after + durNs
}

// selfTimes returns each span's duration minus what its children cover.
// Children of one parent never overlap (one driver goroutine), so the
// covered part is their summed length.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// budgetRow is one line of a workload's ns/packet budget.
type budgetRow struct {
	Name     string  `json:"name"`
	NsPerPkt float64 `json:"ns_per_pkt"`
	Calls    int     `json:"calls"`
}

// descendants lists root's descendants in span order. Parents precede
// their children in the recorder, so one forward pass finds them all.
func descendants(spans []span, root int) []int {
	inTree := make([]bool, len(spans))
	inTree[root] = true
	var out []int
	for i := root + 1; i < len(spans); i++ {
		if p := spans[i].Parent; p >= 0 && inTree[p] {
			inTree[i] = true
			out = append(out, i)
		}
	}
	return out
}

// budget sums self time by span name over the subtree rooted at root,
// leaving out the root's own self time (the driver's glue), per record.
func budget(spans []span, root int, records int64) []budgetRow {
	self := selfTimes(spans)
	byName := map[string]*budgetRow{}
	for _, i := range descendants(spans, root) {
		row := byName[spans[i].Name]
		if row == nil {
			row = &budgetRow{Name: spans[i].Name}
			byName[spans[i].Name] = row
		}
		row.NsPerPkt += float64(self[i])
		row.Calls++
	}
	rows := make([]budgetRow, 0, len(byName))
	for _, row := range byName {
		row.NsPerPkt /= float64(records)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].NsPerPkt != rows[j].NsPerPkt {
			return rows[i].NsPerPkt > rows[j].NsPerPkt
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// durations lists, in order, the lengths in ns of root's descendants
// called name.
func durations(spans []span, root int, name string) []float64 {
	var out []float64
	for _, i := range descendants(spans, root) {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].dur()))
		}
	}
	return out
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
