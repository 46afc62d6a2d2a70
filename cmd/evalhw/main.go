// evalhw regenerates the paper's evaluation (§4): Figure 5 (eviction
// rates by cache geometry and size), Figure 6 (accuracy of non-linear
// queries vs query window), the Figure 2 expressiveness table, the
// unique-flow census, the chip-area model, and the backing-store
// throughput check.
//
// Usage:
//
//	evalhw -exp all                     # everything at CI scale
//	evalhw -exp fig5 -packets 16000000  # bigger trace
//	evalhw -exp fig5 -full              # the paper's full scale (slow)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perfq/internal/chiparea"
	"perfq/internal/harness"
)

// show prints a finished experiment's report, or passes its error on.
func show[R interface{ Format(io.Writer) }](res R, err error) error {
	if err == nil {
		res.Format(os.Stdout)
	}
	return err
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig2|fig5|fig6|census|area|net|window|backing|all")
		packets = flag.Int64("packets", 0, "override trace packet count (fig5/census)")
		seed    = flag.Int64("seed", 2016, "trace seed")
		full    = flag.Bool("full", false, "paper-scale fig5 (157M packets, 2^16..2^21 pairs)")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	experiments := []struct {
		name, title string
		run         func() error
	}{
		{"fig2", "Figure 2: example queries", func() error {
			cfg := harness.DefaultFig2()
			cfg.Seed, cfg.Progress = *seed, progress
			return show(harness.RunFig2(cfg))
		}},
		{"fig5", "Figure 5: eviction rates", func() error {
			cfg := harness.DefaultFig5()
			if *full {
				cfg = harness.FullFig5()
			}
			cfg.Seed, cfg.Progress = *seed, progress
			if *packets > 0 {
				cfg.Packets = *packets
			}
			res, err := harness.RunFig5(cfg)
			if err != nil {
				return err
			}
			res.Format(os.Stdout)
			frac, gap, pairs := res.Headline8Way()
			fmt.Printf("headline (scaled 32-Mbit point, %d pairs): 8-way evicts %.2f%% of packets "+
				"(paper: 3.55%%), %.1f%% above the fully-associative bound (paper: within 2%%)\n",
				pairs, frac*100, gap*100)
			fmt.Printf("at the typical workload that is %.0fK evictions/s (paper: 802K/s)\n",
				frac*harness.TypicalPktPerSec/1e3)
			return nil
		}},
		{"fig6", "Figure 6: accuracy for non-linear queries", func() error {
			cfg := harness.DefaultFig6()
			cfg.Seed, cfg.Progress = *seed, progress
			return show(harness.RunFig6(cfg))
		}},
		{"census", "Unique-flow census", func() error {
			n := int64(4_000_000)
			if *packets > 0 {
				n = *packets
			}
			return show(harness.RunCensus(*seed, n))
		}},
		{"area", "Chip area model (§3.3)", func() error {
			fmt.Printf("SRAM density %.0f Kb/mm², reference die %.0f mm² (the paper's assumptions)\n\n",
				chiparea.SRAMKbPerMM2, chiparea.ReferenceDieMM2)
			fmt.Printf("%10s %12s %10s %10s\n", "Mbit", "pairs", "mm²", "% of die")
			for _, mbit := range []float64{8, 16, 32, 64, 128, 256, 486} {
				bits := int64(mbit * 1e6)
				fmt.Printf("%10.0f %12d %10.2f %9.2f%%\n",
					mbit, chiparea.MbitToPairs(mbit), chiparea.SRAMAreaMM2(bits), 100*chiparea.DieFraction(bits))
			}
			fmt.Printf("\nthe paper's 32-Mbit target costs %.2f%% of the die (claim: < 2.5%%)\n",
				100*chiparea.DieFraction(32e6))
			return nil
		}},
		{"net", "Network-wide loss localization (query fabric)", func() error {
			cfg := harness.DefaultNet()
			cfg.Seed, cfg.Progress = *seed, progress
			return show(harness.RunNet(cfg))
		}},
		{"window", "Window sweep: accuracy vs epoch length (windowed runtime)", func() error {
			cfg := harness.DefaultWindowSweep()
			cfg.Seed, cfg.Progress = *seed, progress
			return show(harness.RunWindowSweep(cfg))
		}},
		{"backing", "Backing-store throughput", func() error {
			return show(harness.RunBackingThroughput(300_000))
		}},
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("\n================ %s ================\n", e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "evalhw: %s: %v\n", e.title, err)
			os.Exit(1)
		}
	}
	if !ran {
		var names []string
		for _, e := range experiments {
			names = append(names, e.name)
		}
		fmt.Fprintf(os.Stderr, "evalhw: unknown experiment %q (%s|all)\n", *exp, strings.Join(names, "|"))
		os.Exit(2)
	}
}
