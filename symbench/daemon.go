package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one symphonyd child process on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	hosting chan struct{} // closed when the daemon prints its hosting line
	exited  chan struct{} // closed when the process has been waited for
	waitErr error
}

// running tracks live daemons so any exit path can stop them.
var running struct {
	sync.Mutex
	set map[*daemon]bool
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon runs bin with a fresh --addr, --data-dir and extra flags,
// appending its log to logPath. It returns once the process has
// started; waitReady waits for it to serve.
func startDaemon(bin, dataDir, logPath string, extra []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"--addr", addr, "--data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, hosting: make(chan struct{}), exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start symphonyd: %w", err)
	}
	running.Lock()
	if running.set == nil {
		running.set = map[*daemon]bool{}
	}
	running.set[d] = true
	running.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		once := sync.Once{}
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if strings.HasPrefix(line, "symphonyd: hosting") {
				once.Do(func() { close(d.hosting) })
			}
		}
		d.waitErr = cmd.Wait()
		logf.Close()
		running.Lock()
		delete(running.set, d)
		running.Unlock()
		close(d.exited)
	}()
	return d, nil
}

// waitReady waits until the daemon answers GET /apps with 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.After(timeout)
	select {
	case <-d.hosting:
	case <-d.exited:
		return fmt.Errorf("symphonyd exited during boot: %v", d.waitErr)
	case <-deadline:
		return errors.New("symphonyd did not start in time")
	}
	for {
		resp, err := c.Get(d.base + "/apps")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("symphonyd exited during boot: %v", d.waitErr)
		case <-deadline:
			return errors.New("symphonyd did not serve in time")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends sig and waits for the process to exit; a daemon that
// outlives the grace period is killed.
func (d *daemon) stop(sig syscall.Signal, grace time.Duration) error {
	if err := d.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("symphonyd ignored %v for %v", sig, grace)
	}
	if sig == syscall.SIGTERM && d.waitErr != nil {
		return fmt.Errorf("symphonyd shutdown: %v", d.waitErr)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the CPU time (user plus system, all threads) the
// process has used. The kernel leaves time stolen by the hypervisor out
// of it, so it holds steady where wall-clock times do not.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3;
	// utime and stime are fields 14 and 15, in clock ticks (USER_HZ,
	// 100 on Linux).
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) / 100, nil
}

// stopAll kills every daemon still running and waits for each.
func stopAll() {
	running.Lock()
	var live []*daemon
	for d := range running.set {
		live = append(live, d)
	}
	running.Unlock()
	for _, d := range live {
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// newClient returns a client with at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// fetch does one request and returns status and body.
func fetch(ctx context.Context, c *http.Client, method, url string, hdr map[string]string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

var designer = map[string]string{"X-Symphony-Designer": "ann"}

// upload posts one CSV batch into ann's catalog dataset and checks the
// report: every record loaded, none rejected.
func upload(ctx context.Context, c *http.Client, base string, body []byte, rows int) error {
	st, b, err := fetch(ctx, c, http.MethodPost,
		base+"/admin/upload?tenant=gamerqueen&dataset=catalog&format=csv&key=sku", designer, body)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("upload: status %d: %s", st, bytes.TrimSpace(b))
	}
	var rep struct {
		Received, Loaded int
		Rejected         map[string]string
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("upload report: %w", err)
	}
	if rep.Received != rows || rep.Loaded != rows || len(rep.Rejected) != 0 {
		return fmt.Errorf("upload: received %d, loaded %d of %d, rejected %v", rep.Received, rep.Loaded, rows, rep.Rejected)
	}
	return nil
}

// catalogApp is the primary-only app over ann's catalog. Its layout
// puts the SKU first in each item so checks can read the page.
const catalogApp = `{"id":"catalog","name":"Catalog","owner":"ann","tenant":"gamerqueen",
"primary":[{"id":"catalog","kind":"proprietary","dataset":"catalog","maxResults":10,
"searchFields":["title","brand","description"],
"layout":{"type":"container","children":[{"type":"text","field":"sku"},{"type":"text","field":"title"},
{"type":"text","field":"brand"},{"type":"text","field":"description"}]}}]}`

func publish(ctx context.Context, c *http.Client, base string) error {
	st, b, err := fetch(ctx, c, http.MethodPost, base+"/admin/publish", designer, []byte(catalogApp))
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("publish: status %d: %s", st, bytes.TrimSpace(b))
	}
	return nil
}
