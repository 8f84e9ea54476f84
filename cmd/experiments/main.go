// Command experiments regenerates the paper's evaluation figures (§IV,
// Figs. 1–6) on the synthetic 45-port PDN testcase, plus the extension
// experiments Ext-A..Ext-D (representation independence, transient
// verification, MOR baseline, enforcement ablation), printing their shape
// metrics and writing one CSV per figure.
//
// The engine claims of Ext-E..Ext-H (adaptive characterization, batch
// enforcement, closed-form weighted Gramian, certified enforcement) are
// hypotheses, judged and recorded as FINDINGS under results/findings:
//
//	experiments list                     show registered hypotheses
//	experiments run [-out dir] [id ...]  evaluate hypotheses, write FINDINGS
//	experiments report [-out dir]        summarize FINDINGS artifacts on disk
//
// Legacy figure mode (no subcommand):
//
//	experiments [-fig all|figs|ext|1..6|A..D] [-out dir] [-points N] [-poles N] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/hypothesis"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "list":
			os.Exit(runList())
		case "run":
			os.Exit(runHypotheses(os.Args[2:]))
		case "report":
			os.Exit(runReport(os.Args[2:]))
		}
	}
	os.Exit(runFigures())
}

func registry() *hypothesis.Registry {
	reg, err := experiments.Hypotheses()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: building hypothesis registry: %v\n", err)
		os.Exit(1)
	}
	return reg
}

func runList() int {
	for _, s := range registry().Specs() {
		fmt.Printf("%-26s %s/%s\n    %s\n", s.ID, s.Class, s.Subtype, s.Claim)
	}
	return 0
}

func runHypotheses(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	out := fs.String("out", "results/findings", "directory for FINDINGS artifacts (empty = no files)")
	fs.Parse(args)

	reg := registry()
	var specs []*hypothesis.Spec
	ids := fs.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		specs = reg.Specs()
	} else {
		for _, id := range ids {
			s, ok := reg.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown hypothesis %q (try 'experiments list')\n", id)
				return 2
			}
			specs = append(specs, s)
		}
	}

	t0 := time.Now()
	exit := 0
	for _, s := range specs {
		t1 := time.Now()
		f, err := hypothesis.Evaluate(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", s.ID, err)
			return 1
		}
		fmt.Printf("%-26s %-12s %s  (%.1fs)\n", f.ID, string(f.Verdict), f.Reason, time.Since(t1).Seconds())
		if f.Verdict == hypothesis.Refuted {
			exit = 1
		}
		if *out != "" {
			if _, err := f.Write(*out); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing FINDINGS: %v\n", err)
				return 1
			}
		}
	}
	if *out != "" {
		fmt.Printf("total %.1fs; FINDINGS artifacts in %s\n", time.Since(t0).Seconds(), *out)
	}
	return exit
}

func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("out", "results/findings", "directory holding FINDINGS-*.json artifacts")
	fs.Parse(args)

	paths, err := filepath.Glob(filepath.Join(*out, "FINDINGS-*.json"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no FINDINGS artifacts in %s (run 'experiments run' first)\n", *out)
		return 1
	}
	sort.Strings(paths)
	exit := 0
	for _, p := range paths {
		f, err := hypothesis.ReadFinding(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: reading %s: %v\n", p, err)
			return 1
		}
		fmt.Printf("%-26s %-12s %s\n", f.ID, string(f.Verdict), f.Reason)
		if f.Verdict == hypothesis.Refuted {
			exit = 1
		}
	}
	return exit
}

func runFigures() int {
	fig := flag.String("fig", "all", "what to regenerate: all, figs, ext, 1..6, or A..D")
	out := flag.String("out", "results", "output directory for CSV series (empty = no files)")
	points := flag.Int("points", 0, "frequency points (default per profile)")
	poles := flag.Int("poles", 0, "model order n (default 12)")
	quick := flag.Bool("quick", false, "use the reduced-cost profile")
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *points > 0 {
		cfg.Points = *points
	}
	if *poles > 0 {
		cfg.Poles = *poles
	}
	ctx := experiments.NewContext(cfg)

	run := map[string]func() (*experiments.FigResult, error){
		"1": ctx.Fig1, "2": ctx.Fig2, "3": ctx.Fig3,
		"4": ctx.Fig4, "5": ctx.Fig5, "6": ctx.Fig6,
		"A": ctx.ExtA, "B": ctx.ExtB, "C": ctx.ExtC, "D": ctx.ExtD,
	}
	figOrder := []string{"1", "2", "3", "4", "5", "6"}
	extOrder := []string{"A", "B", "C", "D"}

	var keys []string
	switch strings.ToLower(*fig) {
	case "all":
		keys = append(append(keys, figOrder...), extOrder...)
	case "figs":
		keys = figOrder
	case "ext":
		keys = extOrder
	default:
		k := strings.ToUpper(*fig)
		if _, ok := run[k]; !ok {
			fmt.Fprintf(os.Stderr, "experiments: bad -fig %q (want all, figs, ext, 1..6 or A..D)\n", *fig)
			return 2
		}
		keys = []string{k}
	}

	t0 := time.Now()
	for _, k := range keys {
		t1 := time.Now()
		res, err := run[k]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", k, err)
			return 1
		}
		fmt.Print(res.Summary())
		if *out != "" {
			if err := res.WriteCSV(*out); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing CSV: %v\n", err)
				return 1
			}
		}
		fmt.Printf("  (%.1fs)\n\n", time.Since(t1).Seconds())
	}
	fmt.Printf("total %.1fs; CSV series in %s\n", time.Since(t0).Seconds(), *out)
	return 0
}
