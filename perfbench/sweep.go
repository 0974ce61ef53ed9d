package main

import (
	"fmt"

	"repro/internal/server"
	"repro/internal/workload"
)

// sweepBudget is every serve-sweep job's instruction budget: fixed, so the
// timed phase lands on the classes set-up captured.
const sweepBudget = 20_000_000

// sweepClass is one functional class of the serve-sweep set.
type sweepClass struct {
	s       *standIn
	withMFI bool
	cold    *op // the set-up job that captured it
}

// runServeSweep is the trace-cache read path: set-up captures a class set
// larger than the memory tier but within the disk tier; the timed phase
// sends warm single jobs with random timing draws and 16-cell batch sweeps
// on bench names, so every answer is a memory or disk hit.
func runServeSweep(e *env) error {
	root := e.tr.Begin(0, "run")
	defer root.End(0)

	var classes []*sweepClass
	var set []*standIn
	d, err := serveSetup(e, root.ID(), func(dir string, parent int64) (*daemon, error) {
		var err error
		set, err = buildAll(e.tr, parent, workload.Profiles())
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(e, dir, daemonOpts{cacheMB: 64, diskMB: 1024})
		if err != nil {
			return nil, err
		}
		classes = classes[:0]
		var ops []*op
		for _, s := range set {
			for _, withMFI := range []bool{false, true} {
				o := newJob(s, false, withMFI, sweepBudget, server.MachineSpec{})
				classes = append(classes, &sweepClass{s: s, withMFI: withMFI, cold: o})
				ops = append(ops, o)
			}
		}
		parallel(e.workers, len(ops), func(i int) { ops[i].exec(e, parent, d.cl) })
		for _, o := range ops {
			if o.err != nil {
				d.stop()
				return nil, fmt.Errorf("capturing the class set: %w", o.err)
			}
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	before, err := fetchStats(d.cl)
	if err != nil {
		return err
	}
	// The class set must exceed the memory tier and fit the disk tier.
	if c := before.Cache; c.DiskEntries != len(classes) || c.Entries >= len(classes) {
		e.fail("class set of %d: %d in memory, %d on disk", len(classes), c.Entries, c.DiskEntries)
	}

	lp := e.tr.Begin(root.ID(), "load")
	lr := closedLoop(e, lp.ID(), d.cl, func(k int) [][]*op {
		r := rngFor(e.seed, fmt.Sprintf("serve-sweep/round/%d", k))
		// Every round sweeps each class once, in a seeded order, the
		// classes dealt out to the clients in turn so that no two clients
		// work on one class: three warm jobs with random timing draws (the
		// first usually a disk hit, the others memory hits), then a
		// 16-cell batch. Two batches get a single job equal to one of
		// their cells, and one set-up job is repeated to compare the warm
		// answer with the cold one.
		order := r.Perm(len(classes))
		two := r.Perm(len(order))
		checked := map[int]bool{order[two[0]]: true, order[two[1]]: true}
		rc := classes[r.Intn(len(classes))]
		warm := newJob(rc.s, false, rc.withMFI, sweepBudget, rc.cold.job.Machine)
		warm.mustEqual(rc.cold, -1, "warm answer and cold answer")
		lists := make([][]*op, e.workers)
		lists[0] = append(lists[0], warm)
		for n, ci := range order {
			c := classes[ci]
			var ops []*op
			for i := 0; i < 3; i++ {
				ops = append(ops, newJob(c.s, false, c.withMFI, sweepBudget, drawMachine(r, c.withMFI)))
			}
			b := newBatch(r, c.s, c.withMFI, sweepBudget)
			ops = append(ops, b)
			if checked[ci] {
				cell := r.Intn(batchCells)
				single := newJob(c.s, false, c.withMFI, sweepBudget, b.batch.Jobs[cell].Machine)
				single.mustEqual(b, cell, "single job and batch cell")
				ops = append(ops, single)
			}
			lists[n%e.workers] = append(lists[n%e.workers], ops...)
		}
		return lists
	})
	lp.End(0)
	after, err := fetchStats(d.cl)
	if err != nil {
		return err
	}

	lr.checkEqual()
	checkLocalAll(e, lr.rounds[0], 4)
	if caps := after.Cache.Misses - before.Cache.Misses; caps != 0 {
		e.fail("serve-sweep captured %d classes in its timed phase", caps)
	}
	lr.report(e)
	if e.traced {
		serverLayers(e, lp.ID(), before, after)
		perm := rngFor(e.seed, "serve-sweep/ladder").Perm(len(set))
		return layerReport(e, root.ID(), []*standIn{set[perm[0]], set[perm[1]]}, set[perm[0]], d)
	}
	rss, err := d.stop()
	d = nil
	if err != nil {
		return err
	}
	e.reference("peak_rss_mb", "MB", rss)
	return nil
}
