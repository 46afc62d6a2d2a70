package trace

import "io"

// BatchSource yields records a run at a time — the pull every driver
// (datapath, fabric, window scheduler, shard pool) consumes, so that
// file and live sources reach the same bulk entry points an in-memory
// slice does.
type BatchSource interface {
	// NextBatch returns the next run of records in stream order: either
	// a non-empty run and a nil error, or no records and the error that
	// ended the stream (io.EOF after the last record). The run is
	// borrowed from the source and valid only until the next call.
	NextBatch() ([]Record, error)
}

// batchLen is the most records Reader and the Source adaptor hand out
// per pull: eight of the datapath's 64-record blocks, so the per-run
// calls above the pull amortize to nothing, in a reused buffer of
// ≈45 KB. Not a knob — 128 to 1024 measured the same on a file replay.
const batchLen = 512

// Batches returns src's batch pull: src itself when it has one, else an
// adaptor that fills one reused buffer through Next.
func Batches(src Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &batcher{src: src, buf: make([]Record, batchLen)}
}

// batcher adapts a plain Source to BatchSource.
type batcher struct {
	src Source
	buf []Record
	err error // what ended the stream; owed to the call after a short run
}

func (b *batcher) NextBatch() ([]Record, error) {
	if b.err != nil {
		return nil, b.err
	}
	for n := range b.buf {
		if b.err = b.src.Next(&b.buf[n]); b.err != nil {
			if n == 0 {
				return nil, b.err
			}
			return b.buf[:n], nil
		}
	}
	return b.buf, nil
}

// EachBatch pulls src dry, handing fn every run in order — the one read
// loop under Datapath.Run (the fabric's too) and window.Stream. It
// returns nil at io.EOF; a source error or the first error fn returns
// ends the loop and is returned verbatim, after every earlier record
// has been handed over.
func EachBatch(src Source, fn func([]Record) error) error {
	bs := Batches(src)
	for {
		recs, err := bs.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = fn(recs)
		}
		if err != nil {
			return err
		}
	}
}
