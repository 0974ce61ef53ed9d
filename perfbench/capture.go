package main

import (
	"fmt"

	"repro/internal/workload"
)

// runServeCapture is the trace-cache write path: every job is a functional
// class the daemon has never seen, so each one loads its image, installs its
// productions, captures, encodes, writes the disk tier and walks once.
func runServeCapture(e *env) error {
	root := e.tr.Begin(0, "run")
	defer root.End(0)

	var benches, images []*standIn
	d, err := serveSetup(e, root.ID(), func(dir string, parent int64) (*daemon, error) {
		var err error
		if benches, err = buildAll(e.tr, parent, workload.Profiles()); err != nil {
			return nil, err
		}
		// A re-seeded twin of every stand-in, sent as an image: the same
		// size mix as the built-ins, with programs the daemon never saw.
		var rs []workload.Profile
		for i, p := range workload.Profiles() {
			rs = append(rs, reseed(p, e.seed, i))
		}
		if images, err = buildAll(e.tr, parent, rs); err != nil {
			return nil, err
		}
		return startDaemon(e, dir, daemonOpts{cacheMB: 256, diskMB: 512})
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
	// Budgets are salted above any stand-in's natural length: every op of
	// the run gets its own, so every class is new to the daemon.
	salted := int64(0)
	salt := func() int64 { salted++; return 20_000_000 + salted }
	lp := e.tr.Begin(root.ID(), "load")
	lr := closedLoop(e, lp.ID(), d.cl, func(k int) [][]*op {
		r := rngFor(e.seed, fmt.Sprintf("serve-capture/round/%d", k))
		// Every round treats each stand-in alike: a job by bench name and
		// one for its re-seeded twin's image, each with and without MFI,
		// and a 16-cell sweep whose MFI flips from round to round. One
		// bench job per round gets a twin that differs only in its salt.
		twin := r.Intn(len(benches))
		var ops []*op
		for i, s := range benches {
			for _, withMFI := range []bool{false, true} {
				bj := newJob(s, false, withMFI, salt(), drawMachine(r, withMFI))
				ops = append(ops, bj, newJob(images[i], true, withMFI, salt(), drawMachine(r, withMFI)))
				if i == twin && withMFI == (k%2 == 0) {
					t := newJob(s, false, withMFI, salt(), bj.job.Machine)
					t.mustEqual(bj, -1, "jobs differing only in budget salt")
					ops = append(ops, t)
				}
			}
			ops = append(ops, newBatch(r, s, (i+k)%2 == 1, salt()))
		}
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return deal(ops, e.workers)
	})
	lp.End(0)
	after, err := fetchStats(d.cl)
	if err != nil {
		return err
	}

	// Oracles: a salt pair answers identically, and the first round agrees
	// with local runs.
	lr.checkEqual()
	checkLocalAll(e, lr.rounds[0], 4)

	// The daemon must have captured every class and hit the cache never.
	n := int64(0)
	for _, rd := range lr.rounds {
		n += int64(len(rd))
	}
	c0, c1 := before.Cache, after.Cache
	if hits := c1.Hits - c0.Hits + c1.DiskHits - c0.DiskHits + c1.PeerHits - c0.PeerHits; hits != 0 {
		e.fail("serve-capture hit the trace cache %d times", hits)
	}
	if caps := c1.Misses - c0.Misses; caps != n {
		e.fail("serve-capture captured %d classes for %d ops", caps, n)
	}
	lr.report(e)
	if e.traced {
		serverLayers(e, lp.ID(), before, after)
		split := benches[rngFor(e.seed, "serve-capture/split").Intn(len(benches))]
		perm := rngFor(e.seed, "serve-capture/ladder").Perm(len(images))
		return layerReport(e, root.ID(), []*standIn{images[perm[0]], images[perm[1]]}, split, d)
	}
	rss, err := d.stop()
	d = nil
	if err != nil {
		return err
	}
	e.reference("peak_rss_mb", "MB", rss)
	return nil
}
