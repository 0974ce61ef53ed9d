package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/workload"
)

// rngFor derives an independent random stream from the run seed and a tag,
// so adding draws to one stream never shifts another.
func rngFor(seed int64, tag string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// standIn is one stand-in program built by the benchmark itself from the
// profile's assembly source. The benchmark never calls Profile.Generate:
// it memoises on name and dynamic length only, so a re-seeded profile
// would come back as the original program.
type standIn struct {
	prof  workload.Profile
	prog  *program.Program
	image []byte // EVRX image
	b64   string // the image as a job's image_b64
}

// reseed gives p a new generator seed derived from the run seed, and a name
// that says so. The program it generates is a never-seen one.
func reseed(p workload.Profile, seed int64, k int) workload.Profile {
	r := rngFor(seed, fmt.Sprintf("reseed/%s/%d", p.Name, k))
	p.Seed = 1000 + r.Int63n(1<<30)
	p.Name = fmt.Sprintf("%s-r%d", p.Name, p.Seed)
	return p
}

// build generates, assembles and images a profile, recording one span per
// layer under parent.
func build(tr *Tracer, parent int64, p workload.Profile) (*standIn, error) {
	sp := tr.Begin(parent, "workload.source")
	src := p.Source()
	sp.End(1)
	sp = tr.Begin(parent, "asm.assemble")
	prog, err := asm.Assemble(p.Name, src)
	if err != nil {
		return nil, fmt.Errorf("assembling %s: %w", p.Name, err)
	}
	sp.End(float64(prog.NumUnits()))
	var img bytes.Buffer
	if err := prog.WriteImage(&img); err != nil {
		return nil, fmt.Errorf("imaging %s: %w", p.Name, err)
	}
	return &standIn{prof: p, prog: prog, image: img.Bytes(), b64: base64.StdEncoding.EncodeToString(img.Bytes())}, nil
}

// buildAll builds every profile in ps.
func buildAll(tr *Tracer, parent int64, ps []workload.Profile) ([]*standIn, error) {
	out := make([]*standIn, len(ps))
	for i, p := range ps {
		s, err := build(tr, parent, p)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

var (
	widths    = []int{2, 4, 8}
	icacheKBs = []int{8, 16, 32, 64, -1}
	diseModes = []string{"free", "stall", "pipe"}
)

// drawMachine draws a timing configuration: width, I-cache size and, for
// jobs that carry productions, the DISE decoder integration.
func drawMachine(r *rand.Rand, withProds bool) server.MachineSpec {
	ms := server.MachineSpec{Width: widths[r.Intn(len(widths))], ICacheKB: icacheKBs[r.Intn(len(icacheKBs))]}
	if withProds {
		ms.DiseMode = diseModes[r.Intn(len(diseModes))]
	}
	return ms
}

// cpuConfigOf maps a wire machine spec onto the timing model's config. It
// is written from the wire's documented meaning, apart from the server's
// own mapping, so the local oracle run checks that mapping too.
func cpuConfigOf(ms server.MachineSpec) cpu.Config {
	cfg := cpu.DefaultConfig()
	if ms.Width > 0 {
		cfg.Width = ms.Width
	}
	switch {
	case ms.ICacheKB == -1:
		cfg.Mem.IL1.Perfect = true
	case ms.ICacheKB > 0:
		cfg.Mem.IL1.Size = ms.ICacheKB << 10
	}
	switch ms.DiseMode {
	case "stall":
		cfg.DiseMode = cpu.DiseStall
	case "pipe":
		cfg.DiseMode = cpu.DisePipe
	}
	return cfg
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
