// Command holmes-bench regenerates the paper's tables and figures on the
// simulated substrate and prints measured-vs-paper comparisons.
//
// Usage:
//
//	holmes-bench -exp table1
//	holmes-bench -exp all
//	holmes-bench -exp fig6 -csv
//	holmes-bench -exp all -mode baseline
//
// -mode=baseline runs every experiment on the sequential, full-recompute
// reference engine; its output must equal the fast mode's byte for byte
// (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"holmes/internal/engine"
	"holmes/internal/experiments"
	"holmes/internal/metrics"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: table1 | table3 | table4 | fig4 | fig5 | fig6 | fig7 | scenarios | fleet | all")
		csv  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		mode = flag.String("mode", "fast", "simulation mode: fast (incremental rebalancer, concurrent cells) | baseline (sequential cells, full-recompute oracle)")
	)
	flag.Parse()

	var suite experiments.Suite
	switch *mode {
	case "fast":
		suite = experiments.NewSuite(engine.New(engine.Config{}))
	case "baseline":
		suite = experiments.NewSuite(engine.New(engine.Config{Concurrency: 1, FullRecompute: true}))
	default:
		fmt.Fprintf(os.Stderr, "holmes-bench: unknown -mode %q (want fast or baseline)\n", *mode)
		os.Exit(2)
	}

	ids := experiments.Names
	if *exp != "all" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		rows, err := suite.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "holmes-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("== %s ==\n", id)
		fmt.Print(render(id, rows, *csv))
		fmt.Println()
	}
}

func render(id string, rows []experiments.Row, csv bool) string {
	var tb *metrics.Table
	if id == "fig4" {
		tb = metrics.New("cell", "reduce-scatter (ms)")
		for _, r := range rows {
			tb.AddF(r.Label, r.ReduceScatterMs)
		}
	} else {
		tb = metrics.New("cell", "TFLOPS", "samples/s", "paper TFLOPS", "paper samples/s", "Δthroughput", "partition")
		for _, r := range rows {
			dt := "n/a"
			if r.PaperThroughput > 0 {
				dt = metrics.PctString(r.Throughput, r.PaperThroughput)
			}
			paperT, paperS := "-", "-"
			if r.PaperTFLOPS > 0 {
				paperT = metrics.FormatFloat(r.PaperTFLOPS)
			}
			if r.PaperThroughput > 0 {
				paperS = metrics.FormatFloat(r.PaperThroughput)
			}
			tb.Add(r.Label, metrics.FormatFloat(r.TFLOPS), metrics.FormatFloat(r.Throughput),
				paperT, paperS, dt, r.Partition)
		}
	}
	if csv {
		return tb.CSV()
	}
	return tb.String()
}
