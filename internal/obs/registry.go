package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Kind tags a metric family for rendering.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHist
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "histogram"
	}
	return "untyped"
}

// Sample is one rendered scalar: a fully-formed Prometheus sample name
// (labels and, for histogram buckets, le included) and its value.
type Sample struct {
	Name  string
	Value float64
}

// series is one labeled instance inside a family. Reads go through
// callbacks so the registry never owns state — it renders whatever the
// instrumented structs hold at scrape time. Sample names are
// precomputed — a histogram's at its first scrape — so Gather into a
// reused buffer is allocation-free.
type series struct {
	labels  string
	readU   func() uint64
	readF   func() float64
	readH   func(*HistSnap)
	scratch *HistSnap // hist read target, reused under the registry lock
	names   []string  // counter/gauge: [name]; hist: buckets..., sum, count
}

type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
}

// Registry holds metric families in registration order. Registration
// is idempotent per (family, labels): re-registering replaces the
// series read callback, so wiring the same structs twice (e.g. two
// runs against one registry) never duplicates output.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	}
	return f
}

func (f *family) slot(labels string) *series {
	for _, s := range f.series {
		if s.labels == labels {
			return s
		}
	}
	s := &series{labels: labels}
	f.series = append(f.series, s)
	return s
}

// sampleName renders name{labels} (or bare name).
func sampleName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// JoinLabels concatenates two label fragments with a comma, tolerating
// either being empty. Fragments are raw Prometheus label text, e.g.
// `switch="leaf0"`.
func JoinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

// Counter registers a counter series read through fn.
func (r *Registry) Counter(name, help, labels string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, KindCounter).slot(labels)
	s.readU = fn
	s.names = []string{sampleName(name, labels)}
}

// CounterVal registers a Counter's summed value.
func (r *Registry) CounterVal(name, help, labels string, c *Counter) {
	r.Counter(name, help, labels, c.Value)
}

// Gauge registers a gauge series read through fn.
func (r *Registry) Gauge(name, help, labels string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, KindGauge).slot(labels)
	s.readF = fn
	s.names = []string{sampleName(name, labels)}
}

// Hist registers a histogram series; fn must overwrite the snapshot
// with the current contents (typically HistSnap.Reset + Accumulate
// over one or more live Hists).
func (r *Registry) Hist(name, help, labels string, fn func(*HistSnap)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, KindHist).slot(labels)
	s.readH = fn
	if s.scratch == nil {
		s.scratch = new(HistSnap)
	}
}

// histNames returns a histogram series' sample names (buckets, sum,
// count), built at its first scrape: an unscraped run allocates none.
func (s *series) histNames(name string) []string {
	if s.names == nil {
		for i := 0; i < HistBuckets; i++ {
			le := "+Inf"
			if i < HistBuckets-1 {
				le = strconv.FormatUint(BucketBound(i), 10)
			}
			s.names = append(s.names, sampleName(name+"_bucket", JoinLabels(s.labels, `le="`+le+`"`)))
		}
		s.names = append(s.names, sampleName(name+"_sum", s.labels), sampleName(name+"_count", s.labels))
	}
	return s.names
}

// HistVal registers a single live Hist.
func (r *Registry) HistVal(name, help, labels string, h *Hist) {
	r.Hist(name, help, labels, h.Snapshot)
}

// Gather appends every sample to dst and returns it. With a dst of
// sufficient capacity and callbacks that do not allocate, Gather is
// allocation-free — the scrape path reuses one buffer per scraper.
// Histograms render cumulatively (Prometheus le semantics).
func (r *Registry) Gather(dst []Sample) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		for _, s := range f.series {
			switch {
			case s.readU != nil:
				dst = append(dst, Sample{s.names[0], float64(s.readU())})
			case s.readF != nil:
				dst = append(dst, Sample{s.names[0], s.readF()})
			case s.readH != nil:
				s.readH(s.scratch)
				names := s.histNames(f.name)
				var cum uint64
				for i := 0; i < HistBuckets; i++ {
					cum += s.scratch.Buckets[i]
					dst = append(dst, Sample{names[i], float64(cum)})
				}
				dst = append(dst, Sample{names[HistBuckets], float64(s.scratch.Sum)})
				dst = append(dst, Sample{names[HistBuckets+1], float64(s.scratch.Count)})
			}
		}
	}
	return dst
}

// Value sums a family's series (histograms contribute their counts).
// It is the read path for the one-line stats logger.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		return 0, false
	}
	var sum float64
	for _, s := range f.series {
		switch {
		case s.readU != nil:
			sum += float64(s.readU())
		case s.readF != nil:
			sum += s.readF()
		case s.readH != nil:
			s.readH(s.scratch)
			sum += float64(s.scratch.Count)
		}
	}
	return sum, true
}

// Quantiles estimates quantiles over a histogram family, merging every
// series' snapshot first (so a per-shard family answers as one
// distribution). ok is false for unregistered or non-histogram names.
func (r *Registry) Quantiles(name string, qs ...float64) ([]float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil || f.kind != KindHist {
		return nil, false
	}
	var merged HistSnap
	for _, s := range f.series {
		if s.readH == nil {
			continue
		}
		s.readH(s.scratch)
		merged.Merge(s.scratch)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = merged.Quantile(q)
	}
	return out, true
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := make([]byte, 0, 4096)
	for _, f := range r.fams {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.help...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')
		for _, s := range f.series {
			switch {
			case s.readU != nil:
				buf = appendSample(buf, s.names[0], float64(s.readU()))
			case s.readF != nil:
				buf = appendSample(buf, s.names[0], s.readF())
			case s.readH != nil:
				s.readH(s.scratch)
				names := s.histNames(f.name)
				var cum uint64
				for i := 0; i < HistBuckets; i++ {
					cum += s.scratch.Buckets[i]
					buf = appendSample(buf, names[i], float64(cum))
				}
				buf = appendSample(buf, names[HistBuckets], float64(s.scratch.Sum))
				buf = appendSample(buf, names[HistBuckets+1], float64(s.scratch.Count))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func appendSample(buf []byte, name string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, ' ')
	if v == float64(uint64(v)) {
		buf = strconv.AppendUint(buf, uint64(v), 10)
	} else {
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, '\n')
}

// jsonSeries / jsonFamily shape the /debug/perfq drill-down: one entry
// per labeled series so per-switch and per-backend views fall out of
// the label structure.
type jsonSeries struct {
	Labels  string            `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *uint64           `json:"sum,omitempty"`
	Mean    *float64          `json:"mean,omitempty"`
	P50     *float64          `json:"p50,omitempty"`
	P90     *float64          `json:"p90,omitempty"`
	P99     *float64          `json:"p99,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

type jsonFamily struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help"`
	Series []jsonSeries `json:"series"`
}

// Debug renders the registry as a JSON-marshalable snapshot. Unlike
// Gather this allocates freely — it serves the debug endpoint, not the
// scrape loop.
func (r *Registry) Debug() []jsonFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]jsonFamily, 0, len(r.fams))
	for _, f := range r.fams {
		jf := jsonFamily{Name: f.name, Type: f.kind.String(), Help: f.help}
		for _, s := range f.series {
			js := jsonSeries{Labels: s.labels}
			switch {
			case s.readU != nil:
				v := float64(s.readU())
				js.Value = &v
			case s.readF != nil:
				v := s.readF()
				js.Value = &v
			case s.readH != nil:
				s.readH(s.scratch)
				count, sum, mean := s.scratch.Count, s.scratch.Sum, s.scratch.Mean()
				js.Count, js.Sum, js.Mean = &count, &sum, &mean
				if count != 0 {
					p50, p90, p99 := s.scratch.Quantile(0.50), s.scratch.Quantile(0.90), s.scratch.Quantile(0.99)
					js.P50, js.P90, js.P99 = &p50, &p90, &p99
				}
				js.Buckets = make(map[string]uint64)
				for i := 0; i < HistBuckets; i++ {
					if n := s.scratch.Buckets[i]; n != 0 {
						le := "+Inf"
						if i < HistBuckets-1 {
							le = strconv.FormatUint(BucketBound(i), 10)
						}
						js.Buckets[le] = n
					}
				}
			}
			jf.Series = append(jf.Series, js)
		}
		out = append(out, jf)
	}
	return out
}

// WriteJSON marshals the Debug snapshot (with an optional extra
// payload under "extra") to w.
func (r *Registry) WriteJSON(w io.Writer, extra any) error {
	doc := struct {
		Metrics []jsonFamily `json:"metrics"`
		Extra   any          `json:"extra,omitempty"`
	}{Metrics: r.Debug(), Extra: extra}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
