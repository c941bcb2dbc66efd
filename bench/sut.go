package main

import (
	"bufio"
	"bytes"
	"context"
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

// buildDir is where everything the benchmark writes goes: the gstored
// binary, datasets, records. It sits at the repository root and is
// git-ignored.
const buildDir = ".bench_build"

// repoRoot locates the repository under test: the parent of this
// package's directory (`go run -C bench .` and `go test` both run with
// bench/ as the working directory).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(root, "cmd", "gstored", "main.go")); err != nil {
		return "", fmt.Errorf("bench must run from <repo>/bench next to cmd/gstored: %w", err)
	}
	return root, nil
}

// buildSUT compiles ./cmd/gstored into the build directory (untimed; a
// no-op when the toolchain finds it up to date) and returns its path.
func buildSUT(ctx context.Context, root string) (string, error) {
	dir := filepath.Join(root, buildDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "gstored")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gstored")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gstored: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one started process of the system under test.
type proc struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop kills the process and waits until it has ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already-exited is the only failure and is fine
	_ = p.cmd.Wait()         // the kill makes Wait report "signal: killed"
}

// newProc prepares (without starting) one SUT process. Its stdout is
// discarded unless the caller attaches a pipe before start.
func newProc(ctx context.Context, bin string, args ...string) *proc {
	p := &proc{cmd: exec.CommandContext(ctx, bin, args...), stderr: &bytes.Buffer{}}
	p.cmd.Stderr = p.stderr
	// Should the benchmark itself die without running its cleanup, the
	// kernel takes the servers down with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return p
}

func (p *proc) start() error {
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", strings.Join(p.cmd.Args, " "), err)
	}
	return nil
}

// exited reports whether the process has ended (it is a zombie until
// stop reaps it).
func (p *proc) exited() bool {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(p.pid()) + "/stat")
	if err != nil {
		return true
	}
	rest := bytes.TrimSpace(stat[bytes.LastIndexByte(stat, ')')+1:])
	return len(rest) > 0 && rest[0] == 'Z'
}

// sut is one running deployment: the serve process plus its workers.
type sut struct {
	base  string // http://127.0.0.1:port
	procs []*proc
	// client is a single keep-alive connection's worth of HTTP client:
	// one closed-loop caller.
	client *http.Client
}

func (s *sut) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for _, p := range s.procs {
		p.stop()
	}
}

func (s *sut) pids() []int {
	out := make([]int, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.pid()
	}
	return out
}

// freePort asks the kernel for an unused loopback port. `gstored serve`
// echoes the -addr it was given rather than the bound address, so :0
// cannot be used there; workers do report their bound address and use :0.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// startWorker starts one `gstored worker` on a kernel-picked port and
// parses its address from the "worker listening on" line.
func startWorker(ctx context.Context, bin string) (*proc, string, error) {
	p := newProc(ctx, bin, "worker", "-listen", "127.0.0.1:0")
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := p.start(); err != nil {
		return nil, "", err
	}
	got := make(chan string, 1) // one send, never blocks the reader goroutine
	// The reader drains stdout until the worker's exit closes the pipe, so
	// the worker can never block on a full pipe; stop() ends it.
	go func() {
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "worker listening on "); ok && !announced {
				addr, _, _ := strings.Cut(rest, " ")
				got <- addr
				announced = true
			}
		}
		if !announced {
			got <- ""
		}
	}()
	select {
	case addr := <-got:
		if addr == "" {
			p.stop()
			return nil, "", fmt.Errorf("worker exited before announcing its address: %s", p.stderr.String())
		}
		return p, addr, nil
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, "", errors.New("worker did not announce its address within 10s")
	case <-ctx.Done():
		p.stop()
		return nil, "", ctx.Err()
	}
}

// startSUT spawns the deployment s describes over the dataset file and
// waits for /healthz to answer 200.
func startSUT(ctx context.Context, bin, dataPath string, s spec) (*sut, error) {
	d := &sut{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()
	var addrs []string
	for i := 0; i < s.SiteWorkers; i++ {
		p, addr, err := startWorker(ctx, bin)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, p)
		addrs = append(addrs, addr)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	hostport := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"serve", "-data", dataPath, "-addr", hostport,
		"-sites", strconv.Itoa(numSites), "-strategy", "hash", "-mode", "full", "-writable"}
	if s.CacheDisabled {
		args = append(args, "-cache", "-1")
	}
	if s.Unordered {
		args = append(args, "-unordered")
	}
	if len(addrs) > 0 {
		args = append(args, "-site-workers", strings.Join(addrs, ","))
	}
	srv := newProc(ctx, bin, args...)
	if err := srv.start(); err != nil {
		return nil, err
	}
	// The serve process leads procs so that procs[0] is always the one
	// writing HTTP responses.
	d.procs = append([]*proc{srv}, d.procs...)
	d.base = "http://" + hostport

	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := d.healthz(ctx); err == nil {
			break
		} else if time.Now().After(deadline) || ctx.Err() != nil {
			return nil, fmt.Errorf("server never became healthy: %v; stderr: %s", err, srv.stderr.String())
		}
		if srv.exited() {
			return nil, fmt.Errorf("server exited during start-up: %s", srv.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	ok = true
	return d, nil
}

// get fetches one of the server's own endpoints and returns the body of a
// 200 reply.
func (s *sut) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *sut) healthz(ctx context.Context) error {
	_, err := s.get(ctx, "/healthz")
	return err
}

// counters is the subset of /metrics the benchmark reads.
type counters struct {
	ShipmentBytes float64
	QuerySeconds  float64
	CacheHits     float64
	CacheMisses   float64
}

func (s *sut) scrape(ctx context.Context) (counters, error) {
	var c counters
	body, err := s.get(ctx, "/metrics")
	if err != nil {
		return c, err
	}
	want := map[string]*float64{
		"gstored_shipment_bytes_total": &c.ShipmentBytes,
		"gstored_query_seconds_total":  &c.QuerySeconds,
		"gstored_cache_hits_total":     &c.CacheHits,
		"gstored_cache_misses_total":   &c.CacheMisses,
	}
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		dst, wanted := want[name]
		if !ok || !wanted {
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return c, fmt.Errorf("metrics: %s: %w", name, err)
		}
		seen++
	}
	if seen != len(want) {
		return c, fmt.Errorf("metrics: found %d of %d expected counters", seen, len(want))
	}
	return c, nil
}

// procUsage is what /proc reports about a set of processes.
type procUsage struct {
	CPUTicks   float64 // utime+stime in clock ticks, summed
	WriteCalls float64 // syscw of the first (serving) process
	PeakRSSKiB float64 // VmHWM, summed
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times. It is 100 on
// every Linux the Go toolchain targets (the kernel ABI fixes it for
// userspace), and cgo-free code has no sysconf to ask.
const clockTicks = 100

func readProcs(pids []int) (procUsage, error) {
	var u procUsage
	for i, pid := range pids {
		dir := "/proc/" + strconv.Itoa(pid)
		stat, err := os.ReadFile(dir + "/stat")
		if err != nil {
			return u, err
		}
		// Fields after the parenthesised command name: state is field 3,
		// utime and stime are fields 14 and 15.
		rest := stat[bytes.LastIndexByte(stat, ')')+1:]
		f := strings.Fields(string(rest))
		if len(f) < 13 {
			return u, fmt.Errorf("%s/stat: short line", dir)
		}
		ut, err1 := strconv.ParseFloat(f[11], 64)
		st, err2 := strconv.ParseFloat(f[12], 64)
		if err := errors.Join(err1, err2); err != nil {
			return u, fmt.Errorf("%s/stat: %w", dir, err)
		}
		u.CPUTicks += ut + st

		status, err := os.ReadFile(dir + "/status")
		if err != nil {
			return u, err
		}
		hwm, err := procField(status, "VmHWM:")
		if err != nil {
			return u, fmt.Errorf("%s/status: %w", dir, err)
		}
		u.PeakRSSKiB += hwm

		if i == 0 {
			ioStat, err := os.ReadFile(dir + "/io")
			if err != nil {
				return u, err
			}
			if u.WriteCalls, err = procField(ioStat, "syscw:"); err != nil {
				return u, fmt.Errorf("%s/io: %w", dir, err)
			}
		}
	}
	return u, nil
}

// procField finds "Key:   123 [unit]" in a /proc key-value file.
func procField(data []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s field", key)
}
