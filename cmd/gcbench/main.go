// Command gcbench regenerates the paper's figures as data tables — the
// experiment harness behind EXPERIMENTS.md.
//
// Usage:
//
//	gcbench                 # all figures at the default (paper-range) sweep
//	gcbench -fig 5          # one figure
//	gcbench -quick          # reduced sweep for smoke runs
//	gcbench -saturation     # extension: latency vs offered load
//	gcbench -resilience     # extension: fault-tolerance profile
//	gcbench -severance      # extension: tree-edge severance campaigns
//	gcbench -wormhole       # extension: wormhole pipeline law
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"gaussiancube/internal/experiments"
	"gaussiancube/internal/gtree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		fig        = fs.Int("fig", 0, "figure to regenerate (1..8, no figure 3 table); 0 = all")
		quick      = fs.Bool("quick", false, "reduced simulation sweep")
		maxN       = fs.Uint("max", 25, "upper n for the Figure 4 sweep")
		saturation = fs.Bool("saturation", false, "also run the extension saturation sweep")
		resil      = fs.Bool("resilience", false, "also run the extension fault-tolerance profile")
		severance  = fs.Bool("severance", false, "also run the extension tree-edge severance campaigns")
		wormhole   = fs.Bool("wormhole", false, "also run the extension wormhole pipeline sweep")
		par        = fs.Int("par", runtime.GOMAXPROCS(0), "sweep points simulated concurrently")
		svgDir     = fs.String("svg", "", "also write each figure as an SVG chart into this directory")
		csvDir     = fs.String("csv", "", "also write each figure as CSV into this directory")
		report     = fs.String("report", "", "also write a combined markdown report to this file")
		histFile   = fs.String("hist", "", "also write latency/hop histograms and a sampled route trace as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig < 0 || *fig > 8 {
		return fmt.Errorf("unknown figure %d", *fig)
	}

	sweep := experiments.DefaultSweep()
	if *quick {
		sweep = experiments.QuickSweep()
	}
	sweep.Parallelism = *par

	want := func(k int) bool { return *fig == 0 || *fig == k }
	var plots []experiments.Figure
	plot := func(f experiments.Figure) experiments.Figure {
		plots = append(plots, f)
		return f
	}

	if want(1) {
		fmt.Fprintln(out, "Figure 1: Gaussian Graphs")
		fmt.Fprint(out, experiments.Figure1())
		fmt.Fprintln(out)
	}
	if want(2) {
		fmt.Fprint(out, plot(experiments.Figure2(14)).Table())
		fmt.Fprintln(out)
	}
	if want(3) {
		fmt.Fprintln(out, "Figure 3: CT branch points (illustration)")
		fmt.Fprint(out, experiments.Figure3(5, 0, []gtree.Node{30, 9, 21, 12}))
		fmt.Fprintln(out)
	}
	if want(4) {
		fmt.Fprint(out, plot(experiments.Figure4(*maxN)).Table())
		fmt.Fprintln(out)
	}
	if want(5) || want(6) {
		fig5, fig6 := experiments.Figures5and6(sweep)
		if want(5) {
			fmt.Fprint(out, plot(fig5).Table())
			fmt.Fprintln(out)
		}
		if want(6) {
			fmt.Fprint(out, plot(fig6).Table())
			fmt.Fprintln(out)
		}
	}
	if want(7) || want(8) {
		fig7, fig8 := experiments.Figures7and8(shiftDown(sweep))
		if want(7) {
			fmt.Fprint(out, plot(fig7).Table())
			fmt.Fprintln(out)
		}
		if want(8) {
			fmt.Fprint(out, plot(fig8).Table())
			fmt.Fprintln(out)
		}
	}
	if *saturation {
		fmt.Fprint(out, plot(experiments.Saturation(sweep.MaxN-4, experiments.DefaultArrivals(),
			sweep.GenCycles, sweep.Seeds)).Table())
		fmt.Fprintln(out)
	}
	if *resil {
		trials, pairs := 20, 20
		if *quick {
			trials, pairs = 6, 8
		}
		for _, f := range experiments.Resilience(sweep.MaxN-4,
			[]int{0, 1, 2, 4, 8, 16}, trials, pairs, 1) {
			fmt.Fprint(out, plot(f).Table())
			fmt.Fprintln(out)
		}
	}
	if *severance {
		trials, pairs := 20, 20
		if *quick {
			trials, pairs = 6, 8
		}
		figs, err := experiments.Severance(sweep.MaxN-4,
			[]int{0, 2, 4, 8, 16, 32}, 1, trials, pairs, 1)
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Fprint(out, plot(f).Table())
			fmt.Fprintln(out)
		}
	}
	if *wormhole {
		fmt.Fprint(out, plot(experiments.WormholeLatency(sweep.MaxN-4, 1,
			[]int{1, 2, 4, 8, 16}, 80, 1)).Table())
		fmt.Fprintln(out)
	}
	if *svgDir != "" {
		if err := writeSVGs(*svgDir, plots); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d SVG charts to %s\n", len(plots), *svgDir)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for _, f := range plots {
			path := filepath.Join(*csvDir, f.ID+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "wrote %d CSV files to %s\n", len(plots), *csvDir)
	}
	if *histFile != "" {
		// One representative point at the top of the sweep range, M = 2:
		// full distribution shape instead of the figures' means, plus a
		// sampled route-trace narrative. CI archives this file per run.
		rep, err := experiments.Distributions(sweep.MaxN, 1, sweep, 64, 16)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*histFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote histogram report (n=%d, %d traced routes) to %s\n", rep.N, rep.Traced, *histFile)
	}
	if *report != "" {
		var b strings.Builder
		b.WriteString("# gaussiancube experiment report\n\n")
		b.WriteString("Generated by `gcbench`; see EXPERIMENTS.md for the paper-vs-measured analysis.\n\n")
		for _, f := range plots {
			b.WriteString(f.Markdown())
			b.WriteString("\n")
		}
		if err := os.WriteFile(*report, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote report with %d figures to %s\n", len(plots), *report)
	}
	return nil
}

// writeSVGs renders each figure to <dir>/<id>.svg.
func writeSVGs(dir string, figs []experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range figs {
		svg, err := f.Chart().Render()
		if err != nil {
			return fmt.Errorf("figure %s: %v", f.ID, err)
		}
		path := filepath.Join(dir, f.ID+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// shiftDown moves the sweep to the Figure 7/8 range (n = 5..13 in the
// paper: one dimension below the Figure 5/6 range).
func shiftDown(s experiments.SimSweep) experiments.SimSweep {
	if s.MinN > 1 {
		s.MinN--
	}
	if s.MaxN > 1 {
		s.MaxN--
	}
	return s
}
