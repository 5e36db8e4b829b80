// Command bench regenerates the paper's evaluation figures (§11–§12).
//
//	go run ./cmd/bench -fig 11a                    # one figure
//	go run ./cmd/bench -fig all -quick             # every figure, shrunk sweeps
//
// Figure output is one aligned table per figure with the same series
// and x-axis the paper plots; EXPERIMENTS.md records a captured run
// and the shape comparison against the paper. The system's performance
// yardstick is `go run ./benchmark` (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"thunderbolt/internal/bench"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to run: 11a|11b|12|13|14|15|16|17|all")
		quick = flag.Bool("quick", false, "shrunk sweeps for fast runs")
		seed  = flag.Int64("seed", 42, "experiment seed")
		out   = flag.String("out", "", "also write the tables to this file")
	)
	flag.Parse()
	opt := bench.Options{Quick: *quick, Seed: *seed}

	var rows []bench.Row
	switch strings.ToLower(*fig) {
	case "11a":
		rows = bench.Fig11a(opt)
	case "11b":
		rows = bench.Fig11b(opt)
	case "12":
		rows = bench.Fig12(opt)
	case "13":
		rows = bench.Fig13(opt)
	case "14":
		rows = bench.Fig14(opt)
	case "15":
		rows = bench.Fig15(opt)
	case "16":
		rows = bench.Fig16(opt)
	case "17":
		rows = bench.Fig17(opt)
	case "all":
		rows = bench.All(opt)
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
	text := bench.Format(rows)
	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
