package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/acf/mfi"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/workload"
)

// op is one request of a serving workload: a single job or a batch sweep.
type op struct {
	job   *server.SubmitRequest
	batch *server.BatchRequest
	spec  jobSpec // the functional part, for the local oracle

	// Filled in when the op has run.
	start   time.Time
	lat     time.Duration
	queueUS int64
	runUS   int64
	result  json.RawMessage   // single job
	cells   []json.RawMessage // batch, by request index
	err     error

	// equal, when set, is an op whose answer this one's must equal byte for
	// byte: its single result (equalCell < 0) or one of its batch cells.
	equal     *op
	equalCell int
	equalWhat string
}

func (o *op) mustEqual(other *op, cell int, what string) {
	o.equal, o.equalCell, o.equalWhat = other, cell, what
}

// checkEqual fails every op whose answer differs from the one it must equal.
func (lr loadResult) checkEqual() {
	for _, rd := range lr.rounds {
		for _, o := range rd {
			w := o.equal
			if w == nil || o.err != nil || w.err != nil {
				continue
			}
			want := w.result
			if o.equalCell >= 0 {
				want = w.cells[o.equalCell]
			}
			if !bytes.Equal(o.result, want) {
				markFailed(o, "%s: results differ", o.equalWhat)
			}
		}
	}
}

// configs is the number of timed configurations the op returns.
func (o *op) configs() int {
	if o.batch != nil {
		return len(o.batch.Jobs)
	}
	return 1
}

// exec runs o once, with no SDK retries: a retryable answer is a failure.
func (o *op) exec(e *env, parent int64, cl *client.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	o.start = time.Now()
	if o.batch == nil {
		jr, err := cl.Submit(ctx, o.job)
		o.lat = time.Since(o.start)
		switch {
		case err != nil:
			o.err = err
		case jr.Outcome != "done":
			o.err = fmt.Errorf("job %s: outcome %s: %s", jr.ID, jr.Outcome, jr.Error)
		default:
			o.queueUS, o.runUS, o.result = jr.QueueUS, jr.RunUS, jr.Result
		}
		if o.err == nil {
			id := e.tr.Add(parent, "client.job", o.start, o.lat, 1)
			e.tr.Add(id, "server.queue", o.start, time.Duration(o.queueUS)*time.Microsecond, 1)
			e.tr.Add(id, "server.run", o.start.Add(time.Duration(o.queueUS)*time.Microsecond), time.Duration(o.runUS)*time.Microsecond, 1)
		}
		return
	}
	cells, sum, err := cl.BatchCollect(ctx, o.batch)
	o.lat = time.Since(o.start)
	if err != nil {
		o.err = err
		return
	}
	o.queueUS, o.runUS = sum.QueueUS, sum.RunUS
	for i, c := range cells {
		if c == nil || c.Outcome != "done" {
			o.err = fmt.Errorf("batch %s cell %d did not finish cleanly", sum.ID, i)
			return
		}
		o.cells = append(o.cells, c.Result)
	}
	id := e.tr.Add(parent, "client.batch", o.start, o.lat, float64(len(cells)))
	e.tr.Add(id, "server.batch_queue", o.start, time.Duration(o.queueUS)*time.Microsecond, 1)
	e.tr.Add(id, "server.batch_run", o.start.Add(time.Duration(o.queueUS)*time.Microsecond), time.Duration(o.runUS)*time.Microsecond, float64(len(cells)))
}

// loadResult is what a closed loop measured.
type loadResult struct {
	rounds [][]*op
	wall   time.Duration
}

// closedLoop drives the daemon with e.workers clients. Each client sends its
// next op only when the previous one has answered. Ops come in whole rounds
// from gen, one list per client: once the run length is spent no new round
// starts, but every op of a started round is sent. Giving each client its
// own list keeps one client from waiting on the other's cache fill.
func closedLoop(e *env, parent int64, cl *client.Client, gen func(k int) [][]*op) loadResult {
	t0 := time.Now()
	end := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	var rounds [][]*op
	for k := 0; k == 0 || time.Now().Before(end); k++ {
		var round []*op
		var wg sync.WaitGroup
		for _, list := range gen(k) {
			round = append(round, list...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, o := range list {
					o.exec(e, parent, cl)
				}
			}()
		}
		wg.Wait()
		rounds = append(rounds, round)
	}
	return loadResult{rounds: rounds, wall: time.Since(t0)}
}

// deal splits ops into n lists, dealing them out in turn.
func deal(ops []*op, n int) [][]*op {
	lists := make([][]*op, n)
	for i, o := range ops {
		lists[i%n] = append(lists[i%n], o)
	}
	return lists
}

// report sets the serving end-to-end metrics of a closed loop and counts
// its operations.
func (lr loadResult) report(e *env) {
	var jobs, batches []float64
	configs := 0
	for _, r := range lr.rounds {
		for _, o := range r {
			e.res.Attempted++
			if o.err != nil {
				e.res.Failed++
				e.fail("%v", o.err)
				continue
			}
			configs += o.configs()
			ms := float64(o.lat) / 1e6
			if o.batch != nil {
				batches = append(batches, ms)
			} else {
				jobs = append(jobs, ms)
			}
		}
	}
	rate := float64(configs) / lr.wall.Seconds()
	e.e2e("sims_per_s", "1/s", rate)
	e.e2e("figures_s", "s", float64(timedConfigsPerStandIn*len(workload.Profiles()))/rate)
	e.e2e("job_p50_ms", "ms", quantile(jobs, 0.5))
	e.e2e("job_p90_ms", "ms", quantile(jobs, 0.9))
	e.e2e("batch_p50_ms", "ms", quantile(batches, 0.5))
}

// serverLayers sets the server.* per-layer metrics from the spans of the
// ops sent under parent and the /stats delta over them.
func serverLayers(e *env, parent int64, before, after *server.StatsPayload) {
	self := e.tr.Self()
	spans := e.tr.Spans()
	jobs := map[int64]bool{}
	var queue, run, httpMS, cell []float64
	for _, s := range spans {
		switch {
		case s.Parent == parent && s.Name == "client.job":
			jobs[s.ID] = true
			httpMS = append(httpMS, float64(self[s.ID])/1e6)
		case s.Parent == parent && s.Name == "client.batch":
			cell = append(cell, float64(s.Dur())/1e6/s.Units)
		}
	}
	for _, s := range spans {
		switch {
		case jobs[s.Parent] && s.Name == "server.queue":
			queue = append(queue, float64(s.Dur())/1e6)
		case jobs[s.Parent] && s.Name == "server.run":
			run = append(run, float64(s.Dur())/1e6)
		}
	}
	e.set("server.queue_ms", "ms", median(queue))
	e.set("server.run_ms", "ms", median(run))
	e.set("server.http_ms", "ms", median(httpMS))
	e.set("server.batch_cell_ms", "ms", median(cell))
	b, a := before.Cache, after.Cache
	hits := float64(a.Hits - b.Hits)
	all := hits + float64(a.DiskHits-b.DiskHits+a.PeerHits-b.PeerHits+a.Misses-b.Misses)
	e.set("server.mem_hit_ratio", "ratio", hits/all)
}

func fetchStats(cl *client.Client) (*server.StatsPayload, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return cl.Stats(ctx)
}

// markFailed turns a passed op into a failed one when a check on it fails.
func markFailed(o *op, format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// checkLocal compares a served single job, or one cell of a served batch,
// with a local cpu.Run of the same program, productions and configuration.
func checkLocal(o *op, cell int) {
	if o.err != nil {
		return
	}
	raw, ms := o.result, server.MachineSpec{}
	if o.batch != nil {
		raw, ms = o.cells[cell], o.batch.Jobs[cell].Machine
	} else {
		ms = o.job.Machine
	}
	var p server.ResultPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		markFailed(o, "decoding result: %v", err)
		return
	}
	r, err := localRun(o.spec, ms)
	if err != nil {
		markFailed(o, "local run: %v", err)
		return
	}
	if err := samePayload(&p, r); err != nil {
		markFailed(o, "%s %+v: %v", o.spec.prog.Name, ms, err)
	}
}

// checkLocalAll runs checkLocal over every step-th op on e.workers
// goroutines: a local run costs about what the daemon spent, so the oracle
// samples the round rather than doubling the run.
func checkLocalAll(e *env, ops []*op, step int) {
	type item struct {
		o    *op
		cell int
	}
	var items []item
	for i := 0; i < len(ops); i += step {
		o := ops[i]
		if o.batch != nil {
			// The first and last cell: the grouped walk's ends.
			items = append(items, item{o, 0}, item{o, len(o.cells) - 1})
		} else {
			items = append(items, item{o, 0})
		}
	}
	parallel(e.workers, len(items), func(i int) { checkLocal(items[i].o, items[i].cell) })
}

// parallel calls f(i) for every i in [0, n) on workers goroutines and
// returns when all calls have.
func parallel(workers, n int, f func(i int)) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// newJob builds a job on stand-in s, by bench name or as an image, plain or
// with the DISE3 fault-isolation productions and their register presets.
func newJob(s *standIn, byImage, withMFI bool, budget int64, ms server.MachineSpec) *op {
	req := &server.SubmitRequest{Machine: ms, BudgetInsts: budget}
	if byImage {
		req.ImageB64 = s.b64
	} else {
		req.Bench = s.prof.Name
	}
	if withMFI {
		req.Prods, req.Regs = mfi.Productions(mfi.DISE3), mfi.SetupRegs()
	}
	return &op{job: req, spec: jobSpec{prog: s.prog, prods: req.Prods, regs: req.Regs, budget: budget}}
}

// newBatch builds a 16-cell sweep on bench stand-in s: one class, sixteen
// timing configurations drawn from r.
func newBatch(r *rand.Rand, s *standIn, withMFI bool, budget int64) *op {
	b := &op{batch: &server.BatchRequest{}}
	for i := 0; i < batchCells; i++ {
		cell := newJob(s, false, withMFI, budget, drawMachine(r, withMFI))
		b.batch.Jobs = append(b.batch.Jobs, *cell.job)
		b.spec = cell.spec
	}
	return b
}

const batchCells = 16

// serveSetup runs set-up three times, each with fresh inputs and a fresh
// daemon, keeps the last and stops the others. It reports setup_s as the
// median.
func serveSetup(e *env, parent int64, once func(dir string, parent int64) (*daemon, error)) (*daemon, error) {
	var times []float64
	var d *daemon
	for i := 0; i < 3; i++ {
		dir := filepath.Join(e.workDir, fmt.Sprintf("setup%d", i))
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(filepath.Join(e.workDir, fmt.Sprintf("setup%d", i-1)))
		}
		sp := e.tr.Begin(parent, "setup")
		t0 := time.Now()
		var err error
		d, err = once(dir, sp.ID())
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		sp.End(1)
	}
	e.e2e("setup_s", "s", median(times))
	return d, nil
}
