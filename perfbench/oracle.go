package main

import (
	"fmt"
	"math"

	"repro/internal/acf/compress"
	"repro/internal/acf/mfi"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The oracles check the program's outputs against values the benchmark
// computes apart from the output under test: never against a stored copy
// of an earlier output.

// archState is a machine's architectural end state.
type archState struct {
	output string
	regs   [isa.NumArchRegs]uint64
	data   uint64 // FNV-1a over the initialized data segment
	err    error
}

// endState runs m to completion and reads its end state. The data checksum
// covers the program's initialized data segment word by word; the stack
// (which holds return addresses, and so differs between layouts) is left
// out.
func endState(m *emu.Machine, dataBytes int) archState {
	st := archState{err: m.Run()}
	st.output = m.Output()
	rf := m.RegFile()
	copy(st.regs[:], rf[:isa.NumArchRegs])
	h := uint64(14695981039346656037)
	for off := 0; off < dataBytes; off += 8 {
		w := m.Mem().Read64(program.DataBase + uint64(off))
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	st.data = h
	return st
}

// sameState compares two end states, skipping the registers in skip.
func sameState(a, b archState, skip ...isa.Reg) error {
	if a.err != nil || b.err != nil {
		return fmt.Errorf("runs ended with errors %v / %v", a.err, b.err)
	}
	if a.output != b.output {
		return fmt.Errorf("output %q != %q", a.output, b.output)
	}
	if a.data != b.data {
		return fmt.Errorf("data segment checksum %#x != %#x", a.data, b.data)
	}
outer:
	for r := range a.regs {
		for _, s := range skip {
			if isa.Reg(r) == s {
				continue outer
			}
		}
		if a.regs[r] != b.regs[r] {
			return fmt.Errorf("r%d = %#x != %#x", r, a.regs[r], b.regs[r])
		}
	}
	return nil
}

// checkTransformsPreserveState is the oracle for the two program
// transformations: the DISE-decompressed and the MFI-rewritten stand-in end
// in the original's architectural state. The return-address register holds
// text addresses, which the transformations move; the rewriter also owns
// its scavenged registers.
func checkTransformsPreserveState(s *standIn) error {
	n := len(s.prog.Data)
	orig := endState(emu.New(s.prog), n)

	res, err := compress.Compress(s.prog, compress.DiseFull())
	if err != nil {
		return fmt.Errorf("compressing: %w", err)
	}
	m := emu.New(res.Prog)
	ctrl := core.NewController(core.DefaultEngineConfig())
	if _, err := res.Install(ctrl); err != nil {
		return fmt.Errorf("installing the decompressor: %w", err)
	}
	m.SetExpander(ctrl.Engine())
	if err := sameState(orig, endState(m, n), isa.RegRA); err != nil {
		return fmt.Errorf("DISE-decompressed: %w", err)
	}

	rw, err := mfi.Rewrite(s.prog)
	if err != nil {
		return fmt.Errorf("rewriting: %w", err)
	}
	rm := emu.New(rw)
	mfi.Setup(rm)
	skip := append([]isa.Reg{isa.RegRA}, mfi.ScavengedRegs()...)
	if err := sameState(orig, endState(rm, n), skip...); err != nil {
		return fmt.Errorf("MFI-rewritten: %w", err)
	}
	return nil
}

// mfiMachine prepares a machine with the DISE3 fault-isolation productions
// on engine geometry ecfg, as a job carrying mfi.Productions and
// mfi.SetupRegs would be.
func mfiMachine(prog *program.Program, ecfg core.EngineConfig) (*emu.Machine, *core.Controller, error) {
	m := emu.New(prog)
	c := core.NewController(ecfg)
	if _, err := c.InstallFile(mfi.Productions(mfi.DISE3), nil); err != nil {
		return nil, nil, err
	}
	m.SetExpander(c.Engine())
	mfi.Setup(m)
	return m, c, nil
}

// checkDISE3Stream is the oracle for the fault-isolation expansion: the
// DISE3 stream is exactly the plain stream plus three instructions per
// load, store and indirect jump, counted from the plain records and the
// program text.
func checkDISE3Stream(prog *program.Program, plain *trace.Trace) error {
	var triggers int64
	r := plain.Replay(0, 0)
	for {
		d, _, ok := r.Next()
		if !ok {
			break
		}
		switch {
		case d.Flags&(cpu.RecIsLoad|cpu.RecIsStore) != 0:
			triggers++
		case prog.Text[prog.UnitAt(d.PC)].Op.Class() == isa.ClassJump:
			triggers++
		}
	}
	m, _, err := mfiMachine(prog, core.DefaultEngineConfig())
	if err != nil {
		return err
	}
	dise := trace.Capture(m)
	if dise.Err() != nil || plain.Err() != nil {
		return fmt.Errorf("captures ended with errors %v / %v", plain.Err(), dise.Err())
	}
	if want := int64(plain.Len()) + 3*triggers; int64(dise.Len()) != want {
		return fmt.Errorf("DISE3 stream has %d records, want %d plain + 3 x %d triggers = %d",
			dise.Len(), plain.Len(), triggers, want)
	}
	if dise.Output() != plain.Output() {
		return fmt.Errorf("DISE3 output %q != plain %q", dise.Output(), plain.Output())
	}
	return nil
}

// checkFig7aRatios is the oracle for Figure 7a's text stack: every ladder
// step's ratio equals the compressed text image's size over the original
// text image's, both measured from the encoded images.
func checkFig7aRatios(s *standIn, text *stats.Table) error {
	orig, err := s.prog.TextImage()
	if err != nil {
		return err
	}
	for _, step := range compress.Ladder() {
		res, err := compress.Compress(s.prog, step.Cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", step.Name, err)
		}
		img, err := res.Prog.TextImage()
		if err != nil {
			return fmt.Errorf("%s: %w", step.Name, err)
		}
		want := float64(len(img)) / float64(len(orig))
		if got := text.Get(s.prof.Name, step.Name); !close(got, want) {
			return fmt.Errorf("%s: table ratio %v, images give %d/%d = %v", step.Name, got, len(img), len(orig), want)
		}
	}
	return nil
}

// checkBaseCells is the oracle for normalisation: Figure 7 (middle) is
// normalised to the uncompressed run on a 32KB I-cache, so that column is
// 1.0 in every row.
func checkBaseCells(perf *stats.Table) error {
	for _, row := range perf.Rows {
		if row == "mean" {
			continue
		}
		if v := perf.Get(row, "raw-32K"); v != 1.0 {
			return fmt.Errorf("%s raw-32K = %v, want 1.0", row, v)
		}
	}
	return nil
}

// fig7Sizes are Figure 7 (middle)'s I-cache columns (0 = perfect).
var fig7Sizes = []struct {
	name string
	kb   int
}{{"8K", 8}, {"32K", 32}, {"128K", 128}, {"perf", 0}}

func icache(kb int) cpu.Config {
	cfg := cpu.DefaultConfig()
	if kb == 0 {
		cfg.Mem.IL1.Perfect = true
	} else {
		cfg.Mem.IL1.Size = kb << 10
	}
	return cfg
}

// fig7Row recomputes one stand-in's Figure 7 (middle) row sequentially:
// one capture per stream and one RunSource per configuration.
func fig7Row(s *standIn) (map[string]float64, error) {
	res, err := compress.Compress(s.prog, compress.DiseFull())
	if err != nil {
		return nil, err
	}
	plain := trace.Capture(emu.New(s.prog))
	base := cpu.RunSource(plain.Replay(0, 0), icache(32))
	m := emu.New(res.Prog)
	ecfg := core.DefaultEngineConfig()
	ecfg.RTPerfect = true
	ctrl := core.NewController(ecfg)
	if _, err := res.Install(ctrl); err != nil {
		return nil, err
	}
	m.SetExpander(ctrl.Engine())
	mfi.Setup(m)
	dise := trace.Capture(m)
	row := map[string]float64{}
	for _, sz := range fig7Sizes {
		raw := cpu.RunSource(plain.Replay(0, 0), icache(sz.kb))
		cfg := icache(sz.kb)
		cfg.DiseMode = cpu.DisePipe
		d := cpu.RunSource(dise.Replay(ecfg.MissPenalty, ecfg.ComposePenalty), cfg)
		for _, r := range []*cpu.Result{base, raw, d} {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		row["raw-"+sz.name] = float64(raw.Cycles) / float64(base.Cycles)
		row["dise-"+sz.name] = float64(d.Cycles) / float64(base.Cycles)
	}
	return row, nil
}

// checkFig7Row compares a recomputed row with the table's.
func checkFig7Row(s *standIn, perf *stats.Table) error {
	row, err := fig7Row(s)
	if err != nil {
		return err
	}
	for col, want := range row {
		if got := perf.Get(s.prof.Name, col); !close(got, want) {
			return fmt.Errorf("%s %s: table %v, recomputed %v", s.prof.Name, col, got, want)
		}
	}
	return nil
}

func close(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// jobSpec is the functional part of a served job: what the local oracle run
// needs besides the timing configuration.
type jobSpec struct {
	prog   *program.Program
	prods  string
	regs   map[string]uint64
	budget int64
}

// localRun is the serving oracle: the same program, productions, register
// presets, budget and timing configuration run live by cpu.Run.
func localRun(j jobSpec, ms server.MachineSpec) (*cpu.Result, error) {
	m := emu.New(j.prog)
	m.SetBudget(j.budget)
	for name, v := range j.regs {
		m.SetReg(isa.RegByName(name, true), v)
	}
	if j.prods != "" {
		c := core.NewController(core.DefaultEngineConfig())
		if _, err := c.InstallFile(j.prods, nil); err != nil {
			return nil, err
		}
		m.SetExpander(c.Engine())
	}
	r := cpu.Run(m, cpuConfigOf(ms))
	return r, r.Err
}

// samePayload compares a served result with a local run, field by field.
func samePayload(p *server.ResultPayload, r *cpu.Result) error {
	if p.Trap != "" || p.Error != "" {
		return fmt.Errorf("served job trapped: %s %s", p.Trap, p.Error)
	}
	got := []int64{p.Cycles, p.Insts, p.AppInsts, p.ICacheAccesses, p.ICacheMisses,
		p.DCacheAccesses, p.DCacheMisses, p.Mispredicts, p.DiseStalls, p.ExpStalls}
	want := []int64{r.Cycles, r.Insts, r.AppInsts, r.ICacheAccesses, r.ICacheMisses,
		r.DCacheAccesses, r.DCacheMisses, r.Mispredicts, r.DiseStalls, r.ExpStalls}
	names := []string{"cycles", "insts", "app_insts", "icache_accesses", "icache_misses",
		"dcache_accesses", "dcache_misses", "mispredicts", "dise_stalls", "exp_stalls"}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: served %d, local cpu.Run %d", names[i], got[i], want[i])
		}
	}
	if p.Output != r.Output {
		return fmt.Errorf("output: served %q, local %q", p.Output, r.Output)
	}
	return nil
}
