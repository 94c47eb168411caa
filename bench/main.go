// Command bench is the repository's end-to-end benchmark: five
// workloads that drive the serving stack over loopback gcwire
// connections and the paper's simulation sweep, check every answer,
// and print one line per metric plus a JSON result line.
//
// Run it from the repository root through its wrapper, which builds it
// from source first:
//
//	bash bench/run.sh --workload wire-hot --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn. --trace 1 splits the
// window between an untraced measurement and an in-process replay with
// spans, and prints the per-layer metrics instead of the end-to-end
// ones. The exit code is 1 on any wrong answer, 2 on a usage or set-up
// error. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is one workload's running system.
type env interface {
	// measure runs the untraced timed window.
	measure(r *report, d time.Duration)
	// trace replays the workload with spans and runs the sibling passes
	// that time single layers, writing the spans to spansPath.
	trace(r *report, d time.Duration, spansPath string) error
	// close tears the system down; with a report it also checks the
	// post-drain conservation laws.
	close(r *report)
}

// errWrongAnswer marks a set-up that failed on a wrong answer, which
// fails the run like any other wrong answer.
var errWrongAnswer = errors.New("wrong answer")

type workloadDef struct {
	name  string
	setup func(o options) (env, error)
}

// workloads, in the order --workload all runs them. BENCHMARK.json
// records why each was chosen.
var workloads = []workloadDef{
	{"wire-hot", func(o options) (env, error) {
		return setupWire(wireSpec{n: 10, alpha: 3, working: true, readers: 2}, o)
	}},
	{"wire-miss", func(o options) (env, error) {
		return setupWire(wireSpec{n: 14, alpha: 2, nodeFaults: 32, readers: 2}, o)
	}},
	{"wire-churn", func(o options) (env, error) {
		// Uniform pairs miss the cache whatever the swap rate. Over a
		// working set, a slow journal fsync would stretch epochs, turn
		// misses into hits and raise the read rate: the disk, not the
		// program, would set the result.
		return setupWire(wireSpec{n: 10, alpha: 3, readers: 1, churn: true}, o)
	}},
	{"cluster-fwd", func(o options) (env, error) {
		return setupWire(wireSpec{n: 12, alpha: 2, working: true, readers: 2, members: 2}, o)
	}},
	{"sim-sweep", setupSweep},
}

// Each run sets its workload up at least minSetups times and until
// setupBudget is spent, at most maxSetups times; setup_s is the median,
// and only the last set-up is measured. Cheap set-ups repeat more, so
// their median stays steady.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 250 * time.Millisecond
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 replays with spans and reports per-layer metrics")
	out := fs.String("out", "bench/out", "directory for the per-run JSON and span files")
	golden := fs.String("update-golden", "", "regenerate the sim-sweep golden file at this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	type result struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}
	total := result{Correct: true, Metrics: make(map[string]measure)}
	for _, w := range defs {
		base := filepath.Join(o.out, runName(w.name, o))
		r, err := runWorkload(w, o, base+".trace.json")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		r.print(stdout)
		one := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]measure)}
		for k, v := range r.selected(!o.trace) {
			one.Metrics[k] = measure{Value: v, Unit: unitOf(k)}
			key := k
			if len(defs) > 1 {
				key = w.name + "/" + k
			}
			total.Metrics[key] = one.Metrics[k]
		}
		total.Correct = total.Correct && one.Correct
		total.Attempted += one.Attempted
		total.Failed += one.Failed
		if err := writeJSON(base+".json", map[string]any{
			"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
			"gomaxprocs": runtime.GOMAXPROCS(0), "result": one, "all_metrics": r.values, "notes": r.notes,
		}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up several times, measures the last
// set-up, and tears it down with the post-drain checks. A traced
// run writes its spans to spansPath.
func runWorkload(w workloadDef, o options, spansPath string) (*report, error) {
	r := newReport(w.name)
	var e env
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if e != nil {
			e.close(nil)
		}
		start := time.Now()
		var err error
		if e, err = w.setup(o); err != nil {
			if errors.Is(err, errWrongAnswer) {
				r.attempted++
				r.wrongAnswer(err.Error())
				return r, nil
			}
			return nil, err
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	r.note("setup_s %v", summarize(setups))
	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		e.measure(r, window)
		e.close(r)
		return r, nil
	}
	e.measure(r, window/2)
	err := e.trace(r, window/2, spansPath)
	e.close(r)
	return r, err
}

func runName(workload string, o options) string {
	kind := "e2e"
	if o.trace {
		kind = "trace"
	}
	return fmt.Sprintf("%s-seed%d-%s-%s", workload, o.seed, kind, time.Now().Format("20060102T150405.000"))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
