// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark analogs:
//
//	experiments -table 2          # Table 2 (runtimes)
//	experiments -table 3          # Table 3 (diagnosis quality)
//	experiments -fig6             # Figure 6 scatter (quality + #solutions)
//	experiments -all -out results # everything, text + CSV under results/
//
// -scale quick shrinks the workload for smoke runs; -scale paper uses the
// full-size s38417 analog and the paper's 30-minute style budgets.
// -engine cegar swaps the BSAT column onto the implicit hitting set
// driver (same solutions, fewer encoded test copies; the "copies" column
// reports how many).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/expt"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate Table 2 or 3")
		fig6    = flag.Bool("fig6", false, "regenerate the Figure 6 scatters")
		all     = flag.Bool("all", false, "regenerate everything")
		outDir  = flag.String("out", "", "directory for text/CSV artifacts (default: stdout only)")
		scale   = flag.String("scale", "default", "workload scale: smoke, quick, default, paper")
		maxSol  = flag.Int("max-solutions", 5000, "solution cap per enumeration (0 = unlimited)")
		timeout = flag.Duration("timeout", 3*time.Minute, "per-enumeration timeout (0 = unlimited)")
		engName = flag.String("engine", "mono", "SAT engine for the BSAT column: mono (one copy per test) or cegar (hitting sets of per-test cores)")
		shards  = flag.Int("shards", 1, "parallel enumeration shards for the SAT column (complete runs return identical solutions for any count)")
	)
	flag.Parse()
	if !*all && *table == 0 && !*fig6 {
		flag.Usage()
		os.Exit(2)
	}
	engine, err := expt.ParseEngine(*engName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	budget := expt.Budget{MaxSolutions: *maxSol, Timeout: *timeout}
	if err := run(*table, *fig6, *all, *outDir, *scale, budget, engine, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(table int, fig6, all bool, outDir, scale string, budget expt.Budget, engine expt.Engine, shards int) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	emit := func(name string, render func(io.Writer)) error {
		render(os.Stdout)
		if outDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(outDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		render(f)
		return nil
	}

	if all || table != 0 {
		rows, err := tableRows(scale, budget, engine, shards)
		if err != nil {
			return err
		}
		expt.SortRows(rows)
		if all || table == 2 {
			fmt.Println("\n== Table 2: runtime of the basic approaches ==")
			if err := emit("table2.txt", func(w io.Writer) { expt.RenderTable2(w, rows) }); err != nil {
				return err
			}
		}
		if all || table == 3 {
			fmt.Println("\n== Table 3: quality of the basic approaches ==")
			if err := emit("table3.txt", func(w io.Writer) { expt.RenderTable3(w, rows) }); err != nil {
				return err
			}
		}
	}

	if all || fig6 {
		circuits, maxP, ms := fig6Sweep(scale)
		avgPts, numPts, err := expt.Figure6Sweep(circuits, maxP, ms, budget)
		if err != nil {
			return err
		}
		fmt.Println("\n== Figure 6(a): avg solution distance, BSAT vs COV ==")
		if err := emit("fig6a.csv", func(w io.Writer) { expt.RenderPointsCSV(w, avgPts) }); err != nil {
			return err
		}
		expt.RenderScatterASCII(os.Stdout, avgPts, false, "Figure 6(a) avg distance")
		fmt.Println("\n== Figure 6(b): number of solutions, BSAT vs COV (log) ==")
		if err := emit("fig6b.csv", func(w io.Writer) { expt.RenderPointsCSV(w, numPts) }); err != nil {
			return err
		}
		expt.RenderScatterASCII(os.Stdout, numPts, true, "Figure 6(b) #solutions")
	}
	return nil
}

func tableRows(scale string, budget expt.Budget, engine expt.Engine, shards int) ([]*expt.Row, error) {
	configs := expt.Table2Configs(budget)
	for i := range configs {
		configs[i].Engine = engine
		configs[i].Shards = shards
	}
	switch scale {
	case "smoke":
		// CI/test-sized workload: the smallest suite circuit only.
		configs = []expt.Config{{Circuit: "s298x", P: 1, Seed: 1, Ms: []int{4}, Budget: budget, Engine: engine, Shards: shards}}
	case "quick":
		for i := range configs {
			configs[i].Ms = []int{4, 8}
		}
		configs = configs[:2] // skip the s38417 analog
	case "paper":
		// Full-size s38417 analog; budgets in the paper's spirit.
		for i := range configs {
			configs[i].PaperScale = true
		}
	case "default":
	default:
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	var rows []*expt.Row
	for _, cfg := range configs {
		fmt.Fprintf(os.Stderr, "running %s (p=%d)...\n", cfg.Circuit, cfg.P)
		rs, err := expt.RunConfig(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}

func fig6Sweep(scale string) (circuits []string, maxP int, ms []int) {
	switch scale {
	case "smoke":
		return []string{"s298x"}, 1, []int{4}
	case "quick":
		return []string{"s298x", "s400x"}, 2, []int{4, 8}
	case "paper":
		return []string{"s298x", "s400x", "s526x", "s838x", "s1196x", "s1423x", "s5378x", "s6669x"},
			4, []int{4, 8, 16, 32}
	default:
		return []string{"s298x", "s400x", "s526x", "s838x", "s1196x", "s1423x"},
			3, []int{4, 16, 32}
	}
}
