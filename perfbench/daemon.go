package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
)

// daemon is one disesrvd process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	cl   *client.Client
	exit chan error
}

// daemonOpts sizes a daemon's trace-cache tiers.
type daemonOpts struct {
	cacheMB int // memory tier
	diskMB  int // disk tier; 0 = memory only
}

// startDaemon starts disesrvd with Workers = nproc under dir and waits
// until it answers /healthz.
func startDaemon(e *env, dir string, o daemonOpts) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", fmt.Sprint(e.workers), "-cache-mb", fmt.Sprint(o.cacheMB)}
	if o.diskMB > 0 {
		args = append(args, "-cache-dir", filepath.Join(dir, "store"), "-cache-disk-mb", fmt.Sprint(o.diskMB))
	}
	logf, err := os.Create(filepath.Join(dir, "disesrvd.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: exec.Command(filepath.Join(e.buildDir, "disesrvd"), args...), log: logf, exit: make(chan error, 1)}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// A benchmark that dies leaves no daemon behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting disesrvd: %w", err)
	}
	go func() { d.exit <- d.cmd.Wait() }()

	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-d.exit:
			d.exit <- err
			d.log.Close()
			return nil, fmt.Errorf("disesrvd exited during start-up: %v (log in %s)", err, logf.Name())
		default:
		}
		if data, err := os.ReadFile(addrFile); err == nil && strings.Contains(string(data), ":") {
			d.cl = client.New(strings.TrimSpace(string(data)), client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			ok, _, err := d.cl.Healthz(ctx)
			cancel()
			if err == nil && ok {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("disesrvd did not become ready within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns its
// peak resident set size.
func (d *daemon) stop() (float64, error) {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exit:
		if err != nil {
			return 0, fmt.Errorf("disesrvd: %w", err)
		}
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exit
		return 0, fmt.Errorf("disesrvd did not drain within 30s")
	}
	return childRSSMB(d.cmd.ProcessState)
}
