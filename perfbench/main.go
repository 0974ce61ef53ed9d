// Command perfbench is the repository benchmark. It runs one named workload
// from a seed, checks the program's outputs against oracles computed apart
// from the program, and prints one JSON result line:
//
//	perfbench --workload paper-figures --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics of an untraced
// run; with --trace 1 it carries the per-layer metrics of a traced run of
// the same inputs (see README.md for the workloads, metrics and oracles).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs with.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workers  int    // simulation workers and client goroutines: nproc
	buildDir string // .bench_build (binaries, scratch stores, span files)
	workDir  string // this run's scratch directory under buildDir
	tr       *Tracer

	res      result
	problems []string // oracle and assertion failures, printed to stderr

	// Ladder tallies that are not spans.
	bytesPerRec          []float64
	memoHits, memoMisses int64
}

// fail records a failed oracle or assertion; it makes the run incorrect.
func (e *env) fail(format string, args ...any) {
	e.res.Correct = false
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

func (e *env) set(name, unit string, v float64) {
	e.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// reference prints a figure that is measured but too unsteady on this kind
// of box to gate on (see README.md) to standard error.
func (e *env) reference(name, unit string, v float64) {
	fmt.Fprintf(os.Stderr, "perfbench: reference: %s = %.1f %s\n", name, v, unit)
}

// overheadMetrics are the end-to-end metrics a traced run also reports,
// as overhead.<name>: traced minus untraced is the tracing overhead.
var overheadMetrics = map[string]bool{"figures_s": true, "job_p50_ms": true}

// e2e sets an end-to-end metric in an untraced run. A traced run keeps
// only the overhead figures.
func (e *env) e2e(name, unit string, v float64) {
	switch {
	case !e.traced:
		e.set(name, unit, v)
	case overheadMetrics[name]:
		e.set("overhead."+name, unit, v)
	}
}

var workloads = map[string]func(*env) error{
	"paper-figures": runPaperFigures,
	"serve-capture": runServeCapture,
	"serve-sweep":   runServeSweep,
}

func main() {
	var (
		wl      = flag.String("workload", "", "paper-figures, serve-capture or serve-sweep")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured phase length in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		pass    = flag.String("pass", "", "internal: run one figures pass in this process")
		benchs  = flag.String("benchmarks", "", "internal: stand-ins of a figures pass")
	)
	flag.Parse()
	if *pass != "" {
		if err := figuresPassMain(*benchs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: figures pass:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *wl)
		os.Exit(2)
	}
	e := &env{
		workload: *wl, seed: *seed, seconds: *seconds, traced: *traced == 1,
		workers:  runtime.NumCPU(),
		buildDir: buildDir(),
		res:      result{Correct: true, Metrics: map[string]metric{}},
	}
	e.tr = NewTracer(e.traced, fmt.Sprintf("%s/seed%d", e.workload, e.seed))
	e.workDir = filepath.Join(e.buildDir, "work", fmt.Sprintf("%s-%d-%d", e.workload, e.seed, os.Getpid()))
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	err := run(e)
	os.RemoveAll(e.workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		os.Exit(1)
	}
	if e.traced {
		path := filepath.Join(e.buildDir, "spans", fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
		if err := e.tr.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	for _, p := range e.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	line, err := json.Marshal(e.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildDir is where run.sh put the binaries: the directory of this
// executable, which is the checkout's build directory.
func buildDir() string {
	exe, err := os.Executable()
	if err != nil {
		return ".bench_build"
	}
	return filepath.Dir(exe)
}

// childRSSMB is the peak resident set size of an exited child process.
func childRSSMB(ps *os.ProcessState) (float64, error) {
	if ps == nil {
		return 0, errors.New("process has not exited")
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for child process")
	}
	return float64(ru.Maxrss) / 1024, nil
}
