// tracegen synthesizes packet-observation traces: a CAIDA-like WAN mix or
// a datacenter mix, written as a pqt record file (the native format every
// other tool reads) or as a pcap for standard tooling. The pcap holds one
// frame per record, built from its headers and lengths with a zero
// payload; it cannot carry the record's qid, tout or queue depths, so no
// perfq tool reads it back.
//
// With -topo the records instead come from the event-driven network
// simulator over a topology built from the spec (the same chain:N /
// leafspine:LxSxH syntax pqrun takes), so the capture carries real
// multi-hop queue IDs, depths and drops — the input a fabric run
// (pqrun -topo) demultiplexes per switch.
//
// Usage:
//
//	tracegen -preset wan -duration 60s -o trace.pqt
//	tracegen -preset dc -duration 10s -format pcap -o trace.pcap
//	tracegen -topo leafspine:4x2x8 -flows 400 -incast 16 -o fabric.pqt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"perfq/internal/netsim"
	"perfq/internal/pcap"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

func main() {
	var (
		preset   = flag.String("preset", "wan", "workload preset: wan|dc")
		duration = flag.Duration("duration", 30*time.Second, "simulated capture length (presets only; -topo workloads are flow-count driven)")
		seed     = flag.Int64("seed", 1, "PRNG seed")
		maxPkts  = flag.Int64("packets", 0, "stop after this many records (0 = no cap)")
		topoSpec = flag.String("topo", "", "simulate over this topology instead (chain:N, leafspine:LxSxH)")
		flows    = flag.Int("flows", 200, "background flows of the -topo workload")
		incast   = flag.Int("incast", 0, "incast senders of the -topo workload (0 = none)")
		format   = flag.String("format", "pqt", "output format: pqt|pcap")
		out      = flag.String("o", "-", "output file (- = stdout)")
	)
	flag.Parse()

	var src trace.Source
	var flowsNote string
	if *topoSpec != "" {
		tp, err := topo.ParseSpec(*topoSpec, topo.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(2)
		}
		recs, err := netsim.GenWorkload(tp, netsim.Workload{
			Seed: *seed, Flows: *flows, IncastSenders: *incast,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		if *maxPkts > 0 && int64(len(recs)) > *maxPkts {
			recs = recs[:*maxPkts]
		}
		src = &trace.SliceSource{Records: recs}
		flowsNote = fmt.Sprintf("%d switches", len(tp.SwitchIDs()))
	} else {
		var cfg tracegen.Config
		switch *preset {
		case "wan":
			cfg = tracegen.WANConfig(*seed, *duration)
		case "dc":
			cfg = tracegen.DCConfig(*seed, *duration)
		default:
			fmt.Fprintf(os.Stderr, "tracegen: unknown preset %q\n", *preset)
			os.Exit(2)
		}
		cfg.MaxPackets = *maxPkts
		src = tracegen.New(cfg)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var n int64
	var err error
	switch *format {
	case "pqt":
		n, err = writePQT(w, src)
	case "pcap":
		n, err = writePcap(w, src)
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	if flowsNote == "" {
		if g, ok := src.(*tracegen.Generator); ok {
			flowsNote = fmt.Sprintf("%d flows started", g.FlowsStarted())
		}
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d records (%s)\n", n, flowsNote)
}

func writePQT(w io.Writer, src trace.Source) (int64, error) {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return 0, err
	}
	var rec trace.Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			return tw.Count(), tw.Flush()
		}
		if err != nil {
			return tw.Count(), err
		}
		if err := tw.Write(&rec); err != nil {
			return tw.Count(), err
		}
	}
}

// writePcap writes one synthesized frame per record so the trace can be
// read by standard tooling.
func writePcap(w io.Writer, src trace.Source) (int64, error) {
	pw, err := pcap.NewWriter(w)
	if err != nil {
		return 0, err
	}
	var rec trace.Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			return pw.Count(), pw.Flush()
		}
		if err != nil {
			return pw.Count(), err
		}
		if err := pw.WriteRecord(&rec); err != nil {
			return pw.Count(), err
		}
	}
}
