package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
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

// goBuild builds one main package with the go command into out.
func goBuild(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	var msg strings.Builder
	cmd.Stdout, cmd.Stderr = &msg, &msg
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s in %s: %v\n%s", pkg, dir, err, msg.String())
	}
	return nil
}

// dieWithParent has the kernel kill a child process when the benchmark
// process dies, so that a benchmark killed before it can stop its
// children leaves none running.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// daemon is one running holmes-serve process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives the process's exit once
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// boot starts the daemon with default flags on a free loopback port and
// returns once /healthz answers 200, with the time from exec to that
// answer.
func boot(bin string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	dieWithParent(cmd)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		// A boot takes a few milliseconds; probing every 100µs keeps the
		// probe's own granularity a small share of it.
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("%s exited during boot: %v", bin, err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	d.stop()
	return nil, 0, fmt.Errorf("%s did not answer /healthz within 30s", bin)
}

// bootMedian boots the daemon n times, keeps the last one running, and
// returns it with the median boot time.
func bootMedian(bin string, n int) (*daemon, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		d, took, err := boot(bin)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, took.Seconds())
		if i == n-1 {
			return d, quantile(secs, 0.5), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// stop asks the daemon to drain (SIGTERM), waits for it to exit, and
// kills it if it has not exited within 15 seconds.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return err
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
		return fmt.Errorf("daemon ignored SIGTERM for 15s and was killed")
	}
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// peakRSS is the daemon's VmHWM so far.
func (d *daemon) peakRSS() (float64, error) {
	return peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
}
