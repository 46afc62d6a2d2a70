package main

import (
	"io"
	"reflect"
	"testing"
	"time"

	"perfq"
)

// tripSource hands out its records one at a time and trips a switch
// while handing out record number `at` — a signal landing mid-run.
type tripSource struct {
	perfq.Source
	read, at int
	trip     func()
}

func (s *tripSource) Next(rec *perfq.Record) error {
	if s.read == s.at {
		s.trip()
	}
	err := s.Source.Next(rec)
	if err == nil {
		s.read++
	}
	return err
}

func TestStopSource(t *testing.T) {
	var recs []perfq.Record
	gen := perfq.DCTrace(7, 300*time.Millisecond)
	for r := (perfq.Record{}); gen.Next(&r) == nil; {
		recs = append(recs, r)
	}
	if len(recs) < 2000 {
		t.Fatalf("short trace: %d records", len(recs))
	}

	s := newStopSource(perfq.Records(recs))
	var r perfq.Record
	if err := s.Next(&r); err != nil {
		t.Fatalf("Next before Stop: %v", err)
	}
	s.Stop()
	if err := s.Next(&r); err != io.EOF {
		t.Fatalf("Next after Stop: %v, want io.EOF", err)
	}
	if run, err := s.NextBatch(); err != io.EOF || len(run) != 0 {
		t.Fatalf("NextBatch after Stop: %d records, %v; want io.EOF", len(run), err)
	}

	// A run stopped partway ends as if the trace had ended there: the
	// tables are those of the records read up to the stop, and a windowed
	// run closes its open window.
	q := perfq.MustCompile("SELECT COUNT, SUM(pkt_len) GROUPBY srcip\n")
	stopped := func() (*stopSource, *tripSource) {
		inner := &tripSource{Source: perfq.Records(recs), at: 700}
		s := newStopSource(inner)
		inner.trip = s.Stop
		return s, inner
	}
	s, inner := stopped()
	got, err := q.Run(s, perfq.WithCache(256, 8))
	if err != nil {
		t.Fatal(err)
	}
	if inner.read <= inner.at || inner.read >= len(recs) {
		t.Fatalf("run read %d of %d records, want a stop shortly after record %d", inner.read, len(recs), inner.at)
	}
	want, err := q.Run(perfq.Records(recs[:inner.read]), perfq.WithCache(256, 8))
	if err != nil {
		t.Fatal(err)
	}
	name := q.Results()[0]
	if want.Table(name).Len() == 0 || !reflect.DeepEqual(got.Table(name).Rows, want.Table(name).Rows) {
		t.Fatalf("stopped run: %d rows, want the %d rows of the first %d records",
			got.Table(name).Len(), want.Table(name).Len(), inner.read)
	}

	s, inner = stopped()
	var windowed int64
	res, err := q.Stream(s, func(w *perfq.WindowResult) error {
		windowed += w.Records
		return nil
	}, perfq.WithCache(256, 8), perfq.WithWindow(perfq.WindowSpec{Count: 300}))
	if err != nil {
		t.Fatal(err)
	}
	if wantWindows := int64(inner.read+299) / 300; res.WindowCount() != wantWindows || windowed != int64(inner.read) {
		t.Fatalf("stopped stream closed %d windows over %d records, want %d over %d",
			res.WindowCount(), windowed, wantWindows, inner.read)
	}
}
