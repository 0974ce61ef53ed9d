package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// timedConfigsPerStandIn counts the timed configurations Figures 6-8
// compute per stand-in: table cells plus the base runs they are normalised
// to (6a 1+5, 6b 3x4, 6c 3x3, 7b 1+4+4, 7c 1+4, 8a 1+3x4, 8b 1+8). Figure 7a
// only compresses. It is how sims_per_s counts a figures pass, and how the
// serving workloads convert their rate into figures_s.
const timedConfigsPerStandIn = 63

// harness is one figure-harness call of a pass.
type harness struct {
	name string
	fig  int
	run  func(experiments.Options) []*stats.Table
}

func one(f func(experiments.Options) *stats.Table) func(experiments.Options) []*stats.Table {
	return func(o experiments.Options) []*stats.Table { return []*stats.Table{f(o)} }
}

// harnesses are the calls experiments.All makes, in its order.
var harnesses = []harness{
	{"fig6_formulation", 6, one(experiments.Fig6Formulation)},
	{"fig6_cache_size", 6, one(experiments.Fig6CacheSize)},
	{"fig6_width", 6, one(experiments.Fig6Width)},
	{"fig7_compression", 7, func(o experiments.Options) []*stats.Table {
		text, total := experiments.Fig7Compression(o)
		return []*stats.Table{text, total}
	}},
	{"fig7_performance", 7, one(experiments.Fig7Performance)},
	{"fig7_rt_size", 7, one(experiments.Fig7RTSize)},
	{"fig8_combos", 8, one(experiments.Fig8Combos)},
	{"fig8_rt", 8, one(experiments.Fig8RT)},
}

// passHarness is one harness call's timing within a pass.
type passHarness struct {
	Name    string `json:"name"`
	Fig     int    `json:"fig"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// passOut is what a figures pass reports to its parent.
type passOut struct {
	WallNS  int64                     `json:"wall_ns"`
	Harness []passHarness             `json:"harness"`
	Tables  map[string][]*stats.Table `json:"tables"`
	Configs int                       `json:"configs"`
}

// figuresPassMain regenerates Figures 6-8 in this process, as disebench
// does, and writes a passOut to stdout. Each pass runs in a fresh process:
// the experiments package keeps process-wide program and trace caches, so
// a second pass in one process would measure cache hits.
func figuresPassMain(benchs string) error {
	o := experiments.Options{Workers: runtime.NumCPU()}
	n := len(workload.Profiles())
	if benchs != "" {
		o.Benchmarks = strings.Split(benchs, ",")
		n = len(o.Benchmarks)
	}
	out := passOut{Tables: map[string][]*stats.Table{}, Configs: n * timedConfigsPerStandIn}
	t0 := time.Now()
	for _, h := range harnesses {
		s := time.Since(t0)
		tabs := h.run(o)
		out.Harness = append(out.Harness, passHarness{Name: h.name, Fig: h.fig, StartNS: int64(s), EndNS: int64(time.Since(t0))})
		out.Tables[h.name] = tabs
	}
	out.WallNS = int64(time.Since(t0))
	return json.NewEncoder(os.Stdout).Encode(out)
}

// figuresPass runs one pass in a child process, recording its harness
// calls as spans under parent.
func figuresPass(e *env, parent int64, benchs []string) (*passOut, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"--pass", "figures"}
	if len(benchs) > 0 {
		args = append(args, "--benchmarks", strings.Join(benchs, ","))
	}
	cmd := exec.Command(exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("figures pass: %w", err)
	}
	rss, err := childRSSMB(cmd.ProcessState)
	if err != nil {
		return nil, 0, err
	}
	var out passOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, 0, fmt.Errorf("figures pass output: %w", err)
	}
	pass := e.tr.Add(parent, "experiments.pass", start, time.Duration(out.WallNS), float64(out.Configs))
	for _, h := range out.Harness {
		e.tr.Add(pass, "experiments."+h.Name, start.Add(time.Duration(h.StartNS)), time.Duration(h.EndNS-h.StartNS), 1)
	}
	return &out, rss, nil
}

// figTimes returns the wall seconds of Figures 6, 7 and 8 within a pass.
func figTimes(p *passOut) map[int]float64 {
	out := map[int]float64{}
	for _, h := range p.Harness {
		out[h.Fig] += float64(h.EndNS-h.StartNS) / 1e9
	}
	return out
}

// runPaperFigures is the researcher's path: Figures 6, 7 and 8 regenerated
// by internal/experiments over the ten stand-ins at nproc workers, one
// fresh process per pass.
func runPaperFigures(e *env) error {
	root := e.tr.Begin(0, "run")
	defer root.End(0)

	// Set-up: the benchmark's own inputs, the ten stand-ins generated,
	// assembled and imaged, three times over.
	var setups []float64
	var standIns []*standIn
	for i := 0; i < 3; i++ {
		sp := e.tr.Begin(root.ID(), "setup")
		t0 := time.Now()
		s, err := buildAll(e.tr, sp.ID(), workload.Profiles())
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.End(1)
		standIns = s
	}
	e.e2e("setup_s", "s", median(setups))

	// Timed phase: whole passes until the run length is spent.
	var walls, sims, rss, jobs, batches []float64
	var last *passOut
	t0 := time.Now()
	for len(walls) == 0 || time.Since(t0).Seconds() < e.seconds {
		p, r, err := figuresPass(e, root.ID(), nil)
		if err != nil {
			return err
		}
		wall := float64(p.WallNS) / 1e9
		walls = append(walls, wall)
		sims = append(sims, float64(p.Configs)/wall)
		rss = append(rss, r)
		for _, h := range p.Harness {
			jobs = append(jobs, float64(h.EndNS-h.StartNS)/1e6)
		}
		for _, s := range figTimes(p) {
			batches = append(batches, s*1e3)
		}
		e.res.Attempted += int64(len(p.Harness))
		last = p
	}
	e.e2e("figures_s", "s", median(walls))
	e.e2e("sims_per_s", "1/s", median(sims))
	e.e2e("job_p50_ms", "ms", quantile(jobs, 0.5))
	e.e2e("job_p90_ms", "ms", quantile(jobs, 0.9))
	e.e2e("batch_p50_ms", "ms", median(batches))
	e.reference("peak_rss_mb", "MB", median(rss))
	if e.traced {
		ft := figTimes(last)
		for fig := 6; fig <= 8; fig++ {
			e.set(fmt.Sprintf("experiments.fig%d_s", fig), "s", ft[fig])
		}
	}

	// Oracles, on two stand-ins the seed picks.
	r := rngFor(e.seed, "paper-figures/oracle")
	perf := last.Tables["fig7_performance"][0]
	text := last.Tables["fig7_compression"][0]
	e.check("fig7b base cells", func() error { return checkBaseCells(perf) })
	var picked []*standIn
	for _, i := range r.Perm(len(standIns))[:2] {
		picked = append(picked, standIns[i])
	}
	for _, s := range picked {
		e.check(s.prof.Name+" transforms preserve state", func() error { return checkTransformsPreserveState(s) })
		e.check(s.prof.Name+" fig7a ratios", func() error { return checkFig7aRatios(s, text) })
	}
	e.check(picked[0].prof.Name+" fig7b row", func() error { return checkFig7Row(picked[0], perf) })
	e.check(picked[1].prof.Name+" DISE3 stream", func() error { return checkDISE3Stream(picked[1].prog, plainCapture(picked[1])) })

	if e.traced {
		return layerReport(e, root.ID(), picked, picked[0], nil)
	}
	return nil
}

// check runs one oracle as an operation: a failed oracle is a failed
// operation and makes the run incorrect.
func (e *env) check(name string, f func() error) {
	e.res.Attempted++
	if err := f(); err != nil {
		e.res.Failed++
		e.fail("%s: %v", name, err)
	}
}
