package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one vitexd process started from the binary built from this
// tree, with its default flags plus -data (and, in the traced run,
// per-document stage tracing). It listens on a free loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	once   sync.Once
	// ready is the time from process start to a successful /healthz.
	ready time.Duration
	// maxRSSMB is the process's peak resident set (VmHWM), known after
	// stop.
	maxRSSMB float64
}

// addrWriter scans the daemon's standard output for its listening line.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const marker = "vitexd listening on "
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if rest, ok := strings.CutPrefix(line, marker); ok {
			addr, _, _ := strings.Cut(rest, " ")
			w.addr <- addr
			w.sent, w.buf = true, nil
			return len(p), nil
		}
	}
}

// startDaemon starts vitexd on dataDir and waits until /healthz answers on
// hc's connection.
func startDaemon(bin, dataDir string, traced bool, hc *http.Client) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-data", dataDir}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	cmd := exec.Command(bin, args...)
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd.Stdout = aw
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting vitexd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case addr := <-aw.addr:
		d.base = "http://" + addr
	case err := <-d.exited:
		return nil, fmt.Errorf("vitexd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("vitexd did not start listening within 30s")
	}
	resp, err := hc.Get(d.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	d.ready = time.Since(start)
	return d, nil
}

// stop drains the daemon with SIGTERM (SIGKILL after 30s), waits for it to
// exit and records its peak RSS. Safe to call more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.maxRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB
		}
	})
}

// cpuSeconds returns the daemon's user plus system CPU time so far, read
// from /proc/PID/stat (clock ticks of 1/100 s, the Linux default).
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading vitexd CPU time: %w", err)
	}
	// Fields after the parenthesized command name: state is the first,
	// utime the twelfth and stime the thirteenth.
	i := bytes.LastIndexByte(b, ')')
	var f []string
	if i >= 0 {
		f = strings.Fields(string(b[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", d.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", d.cmd.Process.Pid)
	}
	return (utime + stime) / 100, nil
}

// connStats counts what the benchmark reads from one client connection:
// read calls, bytes and (when timed) the time spent blocked in Read.
type connStats struct {
	timed  bool
	reads  atomic.Int64
	bytes  atomic.Int64
	readNs atomic.Int64
}

type countingConn struct {
	net.Conn
	st *connStats
}

func (c countingConn) Read(p []byte) (int, error) {
	var t0 time.Time
	if c.st.timed {
		t0 = time.Now()
	}
	n, err := c.Conn.Read(p)
	if c.st.timed {
		c.st.readNs.Add(int64(time.Since(t0)))
	}
	c.st.reads.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

// oneConnClient is an HTTP client held to a single connection, so the
// benchmark's connection count is exactly the number of clients it makes.
func oneConnClient(st *connStats) *http.Client {
	dialer := &net.Dialer{}
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, st}, nil
		},
	}}
}
