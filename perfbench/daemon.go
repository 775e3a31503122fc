package main

import (
	"bufio"
	"context"
	"encoding/json"
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

	"starperf/internal/server"
)

// fleet is a set of starperfd processes: one node, or a static ring
// whose members are started with -self/-peers. Each node journals into
// its own directory under dir and keeps results in its memory cache.
type fleet struct {
	procs []*exec.Cmd
	urls  []string
	addrs []string
	logs  []string
	hc    *http.Client
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var out []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// startFleet execs the nodes and waits until every one answers
// /healthz.
func startFleet(bin, dir string, nodes, workers int) (*fleet, error) {
	addrs, err := freePorts(nodes)
	if err != nil {
		return nil, err
	}
	f := &fleet{addrs: addrs, hc: &http.Client{Timeout: 10 * time.Second}}
	for i, addr := range addrs {
		jdir := filepath.Join(dir, "journal"+strconv.Itoa(i))
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			f.stop()
			return nil, err
		}
		args := []string{"-addr", addr, "-workers", strconv.Itoa(workers), "-journal", jdir, "-drain", "20s"}
		if nodes > 1 {
			var peers []string
			for j, p := range addrs {
				if j != i {
					peers = append(peers, p)
				}
			}
			args = append(args, "-self", addr, "-peers", strings.Join(peers, ","))
		}
		logPath := filepath.Join(dir, "node"+strconv.Itoa(i)+".log")
		logf, err := os.Create(logPath)
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A benchmark that dies without stopping its fleet takes the
		// nodes with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		f.procs = append(f.procs, cmd)
		f.urls = append(f.urls, "http://"+addr)
		f.logs = append(f.logs, logPath)
	}
	for i := range f.urls {
		if err := f.waitHealthy(i, 20*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) waitHealthy(i int, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := f.hc.Get(f.urls[i] + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not healthy after %v: %v\n%s", f.addrs[i], budget, err, tail(f.logs[i]))
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// metricsz scrapes every node's /metricsz.
func (f *fleet) metricsz() ([]server.Metricsz, error) {
	out := make([]server.Metricsz, len(f.urls))
	for i, u := range f.urls {
		resp, err := f.hc.Get(u + "/metricsz")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding %s/metricsz: %w", u, err)
		}
	}
	return out, nil
}

// hwmMB is the peak resident set (VmHWM) summed over the nodes, in MiB.
func (f *fleet) hwmMB() (float64, error) {
	var kb float64
	for _, p := range f.procs {
		v, err := vmHWM(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

func vmHWM(pid int) (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return strconv.ParseFloat(fields[0], 64)
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// cpuSeconds is the CPU time the nodes have used so far: utime plus
// stime from /proc/<pid>/stat, which covers every thread and leaves out
// time the hypervisor stole.
func (f *fleet) cpuSeconds() (float64, error) {
	const userHZ = 100 // clock ticks per second of the /proc counters on Linux
	var ticks float64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name: state is the
		// first, utime the twelfth and stime the thirteenth.
		i := strings.LastIndexByte(string(b), ')')
		fields := strings.Fields(string(b[i+1:]))
		if i < 0 || len(fields) < 13 {
			return 0, fmt.Errorf("unexpected /proc/%d/stat", p.Process.Pid)
		}
		for _, s := range fields[11:13] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return 0, err
			}
			ticks += v
		}
	}
	return ticks / userHZ, nil
}

// stop drains every node with SIGTERM and waits for it to exit,
// killing one that outlives the budget. It reports a node that did not
// exit cleanly.
func (f *fleet) stop() error {
	var errs []error
	for _, p := range f.procs {
		_ = p.Process.Signal(syscall.SIGTERM) // an already-exited node shows up in Wait
	}
	for i, p := range f.procs {
		done := make(chan error, 1)
		go func(p *exec.Cmd) { done <- p.Wait() }(p)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		select {
		case err := <-done:
			// A node stopped within moments of answering /healthz may
			// take SIGTERM before starperfd installs its handler; that
			// default-action exit has nothing in flight to drain.
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
					err = nil
				}
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("node %s: %w\n%s", f.addrs[i], err, tail(f.logs[i])))
			}
		case <-ctx.Done():
			_ = p.Process.Kill() // Wait below reaps it
			<-done
			errs = append(errs, fmt.Errorf("node %s ignored SIGTERM for 30s", f.addrs[i]))
		}
		cancel()
	}
	f.hc.CloseIdleConnections()
	f.procs = nil
	return errors.Join(errs...)
}

// tail returns the last lines of a node log, for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}
