package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/acf/compress"
	"repro/internal/acf/mfi"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
)

// The layer ladder times each layer of the program from outside, by calling
// its public functions on the workload's own stand-ins, one span per call.
// The per-layer metrics are derived from those spans.

const ladderReps = 3

// sink keeps timed results alive so no call is optimised away.
var sink int64

// plainCapture records a stand-in's plain dynamic stream.
func plainCapture(s *standIn) *trace.Trace { return trace.Capture(emu.New(s.prog)) }

// ladderCfgs are the sixteen timing configurations of the grouped walk.
func ladderCfgs() []cpu.Config {
	var out []cpu.Config
	for _, w := range []int{2, 4, 8, 16} {
		for _, kb := range []int{8, 32, 128, 0} {
			cfg := icache(kb)
			cfg.Width = w
			out = append(out, cfg)
		}
	}
	return out
}

// access is one hierarchy access replayed by the mem layer's ladder step.
type access struct {
	addr uint64
	size int // 0 = data access
}

// ladder runs every layer step on s ladderReps times under parent.
func ladder(e *env, parent int64, s *standIn, storeDir string) error {
	tr := e.tr
	st, _, err := store.Open(store.OSFS{}, storeDir, 1<<30)
	if err != nil {
		return err
	}
	var memoHits, memoMisses int64
	for rep := 0; rep < ladderReps; rep++ {
		sp := tr.Begin(parent, "workload.source")
		src := s.prof.Source()
		sp.End(1)
		sp = tr.Begin(parent, "asm.assemble")
		prog, err := asm.Assemble(s.prof.Name, src)
		if err != nil {
			return err
		}
		sp.End(float64(prog.NumUnits()))

		sp = tr.Begin(parent, "program.read_image")
		if _, err := program.ReadImage(s.prof.Name, bytes.NewReader(s.image)); err != nil {
			return err
		}
		sp.End(float64(len(s.image)))

		sp = tr.Begin(parent, "compress.build")
		if _, err := compress.Compress(prog, compress.DiseFull()); err != nil {
			return err
		}
		sp.End(float64(prog.NumUnits()))

		sp = tr.Begin(parent, "mfi.rewrite")
		if _, err := mfi.Rewrite(prog); err != nil {
			return err
		}
		sp.End(float64(prog.NumUnits()))

		const installs = 20
		sp = tr.Begin(parent, "core.install")
		for i := 0; i < installs; i++ {
			c := core.NewController(core.DefaultEngineConfig())
			if _, err := c.InstallFile(mfi.Productions(mfi.DISE3), nil); err != nil {
				return err
			}
		}
		sp.End(installs)

		for _, mode := range []struct {
			name string
			m    emu.TranslateMode
		}{{"emu.interp", emu.TranslateOff}, {"emu.translated", emu.TranslateAuto}} {
			m := emu.New(prog)
			m.SetTranslate(mode.m, 0)
			sp = tr.Begin(parent, mode.name)
			if err := m.Run(); err != nil {
				return fmt.Errorf("%s: %w", mode.name, err)
			}
			sp.End(float64(m.Stats.Total))
		}

		sp = tr.Begin(parent, "trace.capture")
		plain := trace.Capture(emu.New(prog))
		sp.End(float64(plain.Len()))

		m, ctrl, err := mfiMachine(prog, core.DefaultEngineConfig())
		if err != nil {
			return err
		}
		sp = tr.Begin(parent, "trace.capture_mfi")
		mt := trace.Capture(m)
		sp.End(float64(mt.Len()))
		memoHits += ctrl.Engine().Stats.MemoHits
		memoMisses += ctrl.Engine().Stats.MemoMisses
		if plain.Err() != nil || mt.Err() != nil {
			return fmt.Errorf("captures ended with errors %v / %v", plain.Err(), mt.Err())
		}

		if err := expandStep(tr, parent, prog, plain); err != nil {
			return err
		}

		sp = tr.Begin(parent, "trace.encode")
		data, err := plain.MarshalBinary()
		if err != nil {
			return err
		}
		sp.End(float64(plain.Len()))
		e.bytesPerRec = append(e.bytesPerRec, float64(len(data))/float64(plain.Len()))

		sp = tr.Begin(parent, "trace.decode")
		if _, err := trace.UnmarshalBinary(data); err != nil {
			return err
		}
		sp.End(float64(plain.Len()))

		key := store.Key(sha256.Sum256([]byte(fmt.Sprintf("%s/%d", s.prof.Name, rep))))
		mb := float64(len(data)) / (1 << 20)
		sp = tr.Begin(parent, "store.put")
		if err := st.Put(key, data); err != nil {
			return err
		}
		sp.End(mb)
		sp = tr.Begin(parent, "store.get")
		got, ok, err := st.Get(key)
		if err != nil || !ok || len(got) != len(data) {
			return fmt.Errorf("store get: ok=%v err=%v", ok, err)
		}
		sp.End(mb)

		memStep(tr, parent, plain)

		sp = tr.Begin(parent, "cpu.walk")
		if r := cpu.RunSource(plain.Replay(0, 0), cpu.DefaultConfig()); r.Err != nil {
			return r.Err
		}
		sp.End(float64(plain.Len()))
		cfgs := ladderCfgs()
		for _, k := range []int{1, len(cfgs)} {
			sp = tr.Begin(parent, fmt.Sprintf("cpu.many%d", k))
			for _, r := range cpu.RunSourceMany(plain.Replay(0, 0), cfgs[:k]) {
				if r.Err != nil {
					return r.Err
				}
			}
			sp.End(float64(plain.Len()))
		}
	}
	e.memoHits += memoHits
	e.memoMisses += memoMisses
	return nil
}

// expandStep offers the plain stream's application fetches, in order, to a
// DISE3 engine: the cost of expansion per trigger, without the emulator.
func expandStep(tr *Tracer, parent int64, prog *program.Program, plain *trace.Trace) error {
	type site struct {
		in isa.Inst
		pc uint64
	}
	var sites []site
	r := plain.Replay(0, 0)
	for {
		d, _, ok := r.Next()
		if !ok {
			break
		}
		sites = append(sites, site{prog.Text[prog.UnitAt(d.PC)], d.PC})
	}
	c := core.NewController(core.DefaultEngineConfig())
	if _, err := c.InstallFile(mfi.Productions(mfi.DISE3), nil); err != nil {
		return err
	}
	eng := c.Engine()
	sp := tr.Begin(parent, "core.expand")
	for _, s := range sites {
		if x := eng.Expand(s.in, s.pc); x != nil {
			sink += int64(len(x.Insts))
		}
	}
	sp.End(float64(eng.Stats.Expansions))
	return nil
}

// memStep drives a fresh default hierarchy with the stream's fetch and data
// addresses.
func memStep(tr *Tracer, parent int64, plain *trace.Trace) {
	var acc []access
	r := plain.Replay(0, 0)
	for {
		d, _, ok := r.Next()
		if !ok {
			break
		}
		if d.FetchSize > 0 {
			acc = append(acc, access{d.PC, int(d.FetchSize)})
		}
		if d.Flags&(cpu.RecIsLoad|cpu.RecIsStore) != 0 {
			acc = append(acc, access{d.MemAddr, 0})
		}
	}
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	sp := tr.Begin(parent, "mem.access")
	lat := 0
	for _, a := range acc {
		if a.size == 0 {
			lat += h.DataLatency(a.addr)
		} else {
			lat += h.FetchLatency(a.addr, a.size)
		}
	}
	sp.End(float64(len(acc)))
	sink += int64(lat)
}

// ladderMetrics sets the per-layer metrics the ladder's spans give.
func ladderMetrics(e *env) {
	tr := e.tr
	e.set("workload.source_ms", "ms/stand-in", tr.PerUnit("workload.source")/1e6)
	e.set("asm.assemble_ns_per_unit", "ns", tr.PerUnit("asm.assemble"))
	e.set("program.read_image_ns_per_byte", "ns", tr.PerUnit("program.read_image"))
	e.set("compress.build_ns_per_unit", "ns", tr.PerUnit("compress.build"))
	e.set("mfi.rewrite_ns_per_unit", "ns", tr.PerUnit("mfi.rewrite"))
	e.set("core.install_us", "us", tr.PerUnit("core.install")/1e3)
	e.set("core.expand_ns", "ns/trigger", tr.PerUnit("core.expand"))
	e.set("core.memo_hit_ratio", "ratio", float64(e.memoHits)/float64(e.memoHits+e.memoMisses))
	e.set("emu.interp_ns_per_inst", "ns", tr.PerUnit("emu.interp"))
	e.set("emu.translated_ns_per_inst", "ns", tr.PerUnit("emu.translated"))
	e.set("trace.capture_ns_per_rec", "ns", tr.PerUnit("trace.capture"))
	e.set("trace.capture_mfi_ns_per_rec", "ns", tr.PerUnit("trace.capture_mfi"))
	e.set("trace.encode_ns_per_rec", "ns", tr.PerUnit("trace.encode"))
	e.set("trace.decode_ns_per_rec", "ns", tr.PerUnit("trace.decode"))
	e.set("trace.bytes_per_rec", "B", mean(e.bytesPerRec))
	e.set("store.put_ms_per_mb", "ms", tr.PerUnit("store.put")/1e6)
	e.set("store.get_ms_per_mb", "ms", tr.PerUnit("store.get")/1e6)
	e.set("mem.ns_per_access", "ns", tr.PerUnit("mem.access"))
	walk, t1, t16 := tr.PerUnit("cpu.walk"), tr.PerUnit("cpu.many1"), tr.PerUnit("cpu.many16")
	perCfg := (t16 - t1) / 15
	e.set("cpu.walk_ns_per_rec", "ns", walk)
	e.set("cpu.many_cfg_ns_per_rec", "ns", perCfg)
	e.set("cpu.many_shared_ns_per_rec", "ns", t1-perCfg)
	e.set("cpu.many_k1_over_walk", "ratio", t1/walk)
}

// layerReport is the traced run's common tail: the ladder over the
// workload's stand-ins, the two layer splits, and — where the workload
// itself did not measure them — the server and figure-harness layers.
// split must be one of the ten built-in stand-ins. d, when non-nil, is the
// workload's daemon, whose server layers the caller already measured.
func layerReport(e *env, parent int64, set []*standIn, split *standIn, d *daemon) error {
	lp := e.tr.Begin(parent, "ladder")
	for i, s := range set {
		if err := ladder(e, lp.ID(), s, filepath.Join(e.workDir, fmt.Sprintf("ladder-store%d", i))); err != nil {
			return fmt.Errorf("ladder on %s: %w", s.prof.Name, err)
		}
	}
	lp.End(0)
	ladderMetrics(e)

	if err := splitFig7(e, parent, split); err != nil {
		return err
	}
	if d == nil {
		var err error
		if d, err = startDaemon(e, filepath.Join(e.workDir, "ladder-daemon"), daemonOpts{cacheMB: 256}); err != nil {
			return err
		}
		defer d.stop()
		if err := serverExchange(e, parent, d, split); err != nil {
			return err
		}
	}
	if err := splitWarmJob(e, parent, d, split); err != nil {
		return err
	}
	if _, ok := e.res.Metrics["experiments.fig6_s"]; !ok {
		p, _, err := figuresPass(e, parent, []string{split.prof.Name})
		if err != nil {
			return err
		}
		ft := figTimes(p)
		for fig := 6; fig <= 8; fig++ {
			e.set(fmt.Sprintf("experiments.fig%d_s", fig), "s", ft[fig])
		}
	}
	return nil
}

// serverExchange measures the server layers for a workload that sends no
// HTTP itself: one cold job, ten warm ones and a warm 16-cell batch on s.
func serverExchange(e *env, parent int64, d *daemon, s *standIn) error {
	before, err := fetchStats(d.cl)
	if err != nil {
		return err
	}
	sp := e.tr.Begin(parent, "exchange")
	r := rngFor(e.seed, "exchange")
	budget := int64(server.DefaultBudget)
	ops := []*op{newJob(s, false, false, budget, server.MachineSpec{})}
	for i := 0; i < 10; i++ {
		ops = append(ops, newJob(s, false, false, budget, drawMachine(r, false)))
	}
	ops = append(ops, newBatch(r, s, false, budget))
	for _, o := range ops {
		o.exec(e, sp.ID(), d.cl)
		if o.err != nil {
			return fmt.Errorf("server exchange: %w", o.err)
		}
	}
	sp.End(float64(len(ops)))
	after, err := fetchStats(d.cl)
	if err != nil {
		return err
	}
	checkLocalAll(e, ops[:2], 1)
	for _, o := range ops[:2] {
		e.check("exchange job equals local run", func() error { return o.err })
	}
	serverLayers(e, sp.ID(), before, after)
	return nil
}

// splitFig7 splits Fig7Performance on one worker into layer self times.
// The end-to-end time is experiments.Fig7Performance on stand-in s; the
// parts are the same steps made by the benchmark through each layer's
// public functions; the unattributed remainder makes them add up.
func splitFig7(e *env, parent int64, s *standIn) error {
	tr := e.tr
	root := tr.Begin(parent, "split.fig7")
	t0 := time.Now()
	tab := experiments.Fig7Performance(experiments.Options{Workers: 1, Benchmarks: []string{s.prof.Name}})
	total := time.Since(t0)
	root.End(1)

	mp := tr.Begin(parent, "split.fig7.mirror")
	step := func(name string, units func() float64) {
		sp := tr.Begin(mp.ID(), "split.fig7/"+name)
		sp.End(units())
	}
	var prog *program.Program
	var res *compress.Result
	var plain, dise *trace.Trace
	var base *cpu.Result
	var raws, dises []*cpu.Result
	var err error
	var src string
	var m *emu.Machine
	ecfg := core.DefaultEngineConfig()
	ecfg.RTPerfect = true
	step("workload.source", func() float64 { src = s.prof.Source(); return 1 })
	step("asm.assemble", func() float64 { prog, err = asm.Assemble(s.prof.Name, src); return 1 })
	if err != nil {
		return err
	}
	step("compress.build", func() float64 { res, err = compress.Compress(prog, compress.DiseFull()); return 1 })
	if err != nil {
		return err
	}
	step("trace.capture", func() float64 { plain = trace.Capture(emu.New(prog)); return float64(plain.Len()) })
	step("cpu.walk", func() float64 { base = cpu.RunSource(plain.Replay(0, 0), icache(32)); return 1 })
	var rawCfgs, diseCfgs []cpu.Config
	for _, sz := range fig7Sizes {
		rawCfgs = append(rawCfgs, icache(sz.kb))
		c := icache(sz.kb)
		c.DiseMode = cpu.DisePipe
		diseCfgs = append(diseCfgs, c)
	}
	step("cpu.many", func() float64 { raws = cpu.RunSourceMany(plain.Replay(0, 0), rawCfgs); return 4 })
	step("core.install", func() float64 {
		m = emu.New(res.Prog)
		c := core.NewController(ecfg)
		if _, err = res.Install(c); err == nil {
			m.SetExpander(c.Engine())
			mfi.Setup(m)
		}
		return 1
	})
	if err != nil {
		return err
	}
	step("trace.capture_decomp", func() float64 { dise = trace.Capture(m); return float64(dise.Len()) })
	step("cpu.many_dise", func() float64 {
		dises = cpu.RunSourceMany(dise.Replay(ecfg.MissPenalty, ecfg.ComposePenalty), diseCfgs)
		return 4
	})
	mp.End(1)
	e.check("split fig7 mirror equals Fig7Performance", func() error {
		for i, sz := range fig7Sizes {
			for _, c := range []struct {
				col string
				r   *cpu.Result
			}{{"raw-" + sz.name, raws[i]}, {"dise-" + sz.name, dises[i]}} {
				want := float64(c.r.Cycles) / float64(base.Cycles)
				if got := tab.Get(s.prof.Name, c.col); !close(got, want) {
					return fmt.Errorf("%s: Fig7Performance %v, mirror %v", c.col, got, want)
				}
			}
		}
		return nil
	})

	parts := map[string]float64{}
	for _, sp := range tr.Spans() {
		if sp.Parent == mp.ID() {
			parts[strings.TrimPrefix(sp.Name, "split.fig7/")] += float64(sp.Dur()) / 1e6
		}
	}
	e.printSplit(fmt.Sprintf("Fig7Performance, 1 worker, %s", s.prof.Name), float64(total)/1e6, parts, "split.fig7_unattributed_ms")
	return nil
}

// splitWarmJob splits a warm single job (a memory-tier hit) into queue
// wait, the timing walk, HTTP/JSON and the unattributed rest of the run.
// The walk is timed locally on the same stream and configuration; the
// others come from the job envelope and the client's clock. Means, not
// medians, so the parts add up.
func splitWarmJob(e *env, parent int64, d *daemon, s *standIn) error {
	root := e.tr.Begin(parent, "split.job")
	defer root.End(1)
	req := &server.SubmitRequest{Bench: s.prof.Name}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := d.cl.Submit(ctx, req); err != nil {
		return fmt.Errorf("warm-job split: %w", err)
	}
	const n = 10
	var lat, queue, run float64
	var cycles int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		jr, err := d.cl.Submit(ctx, req)
		if err != nil {
			return fmt.Errorf("warm-job split: %w", err)
		}
		l := time.Since(t0)
		if !jr.Cached {
			return fmt.Errorf("warm-job split: job %s was not served from the cache", jr.ID)
		}
		p, err := jr.Payload()
		if err != nil {
			return err
		}
		cycles = p.Cycles
		lat += float64(l) / 1e6
		queue += float64(jr.QueueUS) / 1e3
		run += float64(jr.RunUS) / 1e3
		e.tr.Add(root.ID(), "split.job/request", t0, l, 1)
	}
	plain := plainCapture(s)
	var walk float64
	var local int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r := cpu.RunSource(plain.Replay(0, 0), cpu.DefaultConfig())
		walk += float64(time.Since(t0)) / 1e6
		local = r.Cycles
	}
	e.check("warm job equals local walk", func() error {
		if local != cycles {
			return fmt.Errorf("served %d cycles, local walk %d", cycles, local)
		}
		return nil
	})
	lat, queue, run, walk = lat/n, queue/n, run/n, walk/n
	e.printSplit(fmt.Sprintf("warm single job, %s", s.prof.Name), lat, map[string]float64{
		"server.queue": queue,
		"server.http":  lat - queue - run,
		"cpu.walk":     walk,
	}, "split.job_unattributed_ms")
	return nil
}

// printSplit prints one layer split: each part, and the unattributed
// remainder that makes the parts add back up to the end-to-end time.
func (e *env) printSplit(title string, totalMS float64, parts map[string]float64, metricName string) {
	names := make([]string, 0, len(parts))
	sum := 0.0
	for n, v := range parts {
		names = append(names, n)
		sum += v
	}
	sort.Slice(names, func(i, j int) bool { return parts[names[i]] > parts[names[j]] })
	fmt.Printf("layer split: %s\n", title)
	for _, n := range names {
		fmt.Printf("  %-22s %10.3f ms %6.1f%%\n", n, parts[n], 100*parts[n]/totalMS)
	}
	rest := totalMS - sum
	fmt.Printf("  %-22s %10.3f ms %6.1f%%\n", "unattributed", rest, 100*rest/totalMS)
	fmt.Printf("  %-22s %10.3f ms\n", "end-to-end", totalMS)
	e.set(metricName, "ms", rest)
	_ = os.Stdout.Sync()
}
