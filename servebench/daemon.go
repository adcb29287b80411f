package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running lonad process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
}

// instance is one serving instance: a single lonad, or a coordinator
// plus its shard workers. front receives all client traffic.
type instance struct {
	front   *daemon
	workers []*daemon
}

// bootTimeout bounds how long one lonad may take to answer its health
// check.
const bootTimeout = 60 * time.Second

// dataFlags are the dataset flags every lonad of a run shares, so all
// processes derive the same graph, scores and partitioning.
func dataFlags() []string {
	return []string{
		"-dataset", "collaboration",
		"-scale", strconv.FormatFloat(dataScale, 'g', -1, 64),
		"-seed", strconv.Itoa(dataSeed),
		"-relevance", "mixture",
		"-r", strconv.FormatFloat(dataR, 'g', -1, 64),
		"-hops", strconv.Itoa(dataH),
		"-drain", "2s",
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches lonad with args plus a fresh loopback address and
// waits until healthPath answers 200.
func startDaemon(ctx context.Context, lonad string, healthPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(lonad, append(args, "-addr", addr)...)
	// One wide-event log line per query goes to stderr; discard it.
	cmd.Stdout, cmd.Stderr = nil, nil
	// Should the benchmark die without stopping it, the kernel stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lonad: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	if err := d.waitHealthy(ctx, healthPath); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(ctx context.Context, path string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(bootTimeout)
	for {
		resp, err := client.Get(d.base + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err // keep it for stop
			return fmt.Errorf("lonad %v exited before it was healthy: %v", d.cmd.Args[1:], err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lonad %v not healthy after %v", d.cmd.Args[1:], bootTimeout)
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop sends SIGTERM, waits for exit, and kills the process if it has
// not drained within a few seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// bootInstance starts one serving instance for w and returns it with its
// set-up time: from the first process start until every lonad answers
// its health check.
func bootInstance(ctx context.Context, lonad string, w workload, journalDir string) (*instance, time.Duration, error) {
	start := time.Now()
	c := &instance{}
	args := dataFlags()
	if w.shardWorkers > 0 {
		type result struct {
			i   int
			d   *daemon
			err error
		}
		ch := make(chan result, w.shardWorkers)
		for i := 0; i < w.shardWorkers; i++ {
			i := i
			go func() {
				d, err := startDaemon(ctx, lonad, "/v1/shard/health", append(dataFlags(),
					"-shards", strconv.Itoa(w.shardWorkers), "-shard-worker", "-shard-index", strconv.Itoa(i))...)
				ch <- result{i, d, err}
			}()
		}
		c.workers = make([]*daemon, w.shardWorkers)
		var errs []error
		for range c.workers {
			r := <-ch
			c.workers[r.i] = r.d
			errs = append(errs, r.err)
		}
		if err := errors.Join(errs...); err != nil {
			c.stop()
			return nil, 0, err
		}
		peers := make([]string, len(c.workers))
		for i, d := range c.workers {
			peers[i] = d.base
		}
		args = append(args, "-shard-peers", strings.Join(peers, ","))
	}
	if journalDir != "" {
		args = append(args, "-journal", journalDir)
	}
	front, err := startDaemon(ctx, lonad, "/v1/health", args...)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	c.front = front
	return c, time.Since(start), nil
}

// peakRSSMB sums VmHWM over the instance's processes.
func (c *instance) peakRSSMB() (float64, error) {
	var sum float64
	for _, d := range append([]*daemon{c.front}, c.workers...) {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// stop stops every process of the instance, front first.
func (c *instance) stop() {
	if c.front != nil {
		c.front.stop()
	}
	for _, d := range c.workers {
		if d != nil {
			d.stop()
		}
	}
}
