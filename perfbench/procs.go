package main

import (
	"bufio"
	"crypto/rsa"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
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

// daemon is one serving process the benchmark started.
type daemon struct {
	name  string
	cmd   *exec.Cmd
	addr  string // protocol listener
	admin string // http://host:port of the stats mux
	key   string // attestation key file (gatewayds only)
	done  chan struct{}
	err   error // exit status, valid once done is closed
}

// fleet is the serving topology of one workload: its gatewayds and, when
// routed, the router sessions connect to.
type fleet struct {
	gateways []*daemon
	router   *daemon
}

// entry is the address clients dial.
func (f *fleet) entry() string {
	if f.router != nil {
		return f.router.addr
	}
	return f.gateways[0].addr
}

func (f *fleet) all() []*daemon {
	ds := append([]*daemon(nil), f.gateways...)
	if f.router != nil {
		ds = append(ds, f.router)
	}
	return ds
}

// freeAddr reserves an ephemeral loopback port. The listener is closed
// before the daemon binds it; nothing else on loopback races for it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// start execs one daemon with its log going to a file under dir. The
// child is killed if the benchmark dies first.
func start(name, bin, dir string, args []string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// stop drains a daemon with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (f *fleet) stop() {
	for _, d := range f.all() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range f.all() {
		d.stop()
	}
}

// bootFleet starts the workload's daemons — gatewayds with default flags
// plus the workload's policy list, then, once they are ready, the router
// when there is one — and returns once every process is ready. Only
// deployment settings (addresses, key files) are added to the flags.
// Starting the router last, as an orchestrator would, keeps its first
// health probe from finding a backend still booting and marking it down
// for a cooldown.
func bootFleet(w *workload, binDir, dir string) (*fleet, time.Duration, error) {
	f := &fleet{}
	t0 := time.Now()
	for i := 0; i < w.Backends; i++ {
		addr, err := freeAddr()
		if err != nil {
			return f, 0, err
		}
		admin, err := freeAddr()
		if err != nil {
			return f, 0, err
		}
		name := fmt.Sprintf("gatewayd-%d", i)
		key := filepath.Join(dir, name+".pub")
		args := []string{"-listen", addr, "-stats-addr", admin, "-attest-key-out", key}
		if w.Policies != defaultPolicies {
			args = append(args, "-policies", w.Policies)
		}
		d, err := start(name, filepath.Join(binDir, "engarde-gatewayd"), dir, args)
		if err != nil {
			return f, 0, err
		}
		d.addr, d.admin, d.key = addr, "http://"+admin, key
		f.gateways = append(f.gateways, d)
	}
	if err := f.waitReady(60 * time.Second); err != nil {
		return f, 0, err
	}
	if w.Router {
		addr, err := freeAddr()
		if err != nil {
			return f, 0, err
		}
		admin, err := freeAddr()
		if err != nil {
			return f, 0, err
		}
		args := []string{"-listen", addr, "-stats-addr", admin}
		for _, g := range f.gateways {
			args = append(args, "-backend", fmt.Sprintf("%s=%s,%s", g.name, g.addr, g.admin))
		}
		d, err := start("router", filepath.Join(binDir, "engarde-router"), dir, args)
		if err != nil {
			return f, 0, err
		}
		d.addr, d.admin = addr, "http://"+admin
		f.router = d
	}
	if err := f.waitReady(60 * time.Second); err != nil {
		return f, 0, err
	}
	return f, time.Since(t0), nil
}

// waitReady polls until every gatewayd answers /readyz 200 with its key
// file written, and the router (if any) is ready with every backend
// healthy.
func (f *fleet) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range f.all() {
		for !d.ready(len(f.gateways)) {
			select {
			case <-d.done:
				return fmt.Errorf("%s exited during start-up: %v (see %s.log)", d.name, d.err, d.name)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v", d.name, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func (d *daemon) ready(backends int) bool {
	resp, err := httpClient.Get(d.admin + "/readyz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if d.key == "" { // the router
		var st struct {
			Healthy int `json:"healthy"`
		}
		return getJSON(d.admin+"/statsz", &st) == nil && st.Healthy == backends
	}
	_, err = os.Stat(d.key)
	return err == nil
}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// platformKeys reads every gatewayd's attestation key.
func (f *fleet) platformKeys() ([]*rsa.PublicKey, error) {
	var keys []*rsa.PublicKey
	for _, g := range f.gateways {
		raw, err := os.ReadFile(g.key)
		if err != nil {
			return nil, err
		}
		block, _ := pem.Decode(raw)
		if block == nil {
			return nil, fmt.Errorf("%s: no PEM block", g.key)
		}
		pub, err := x509.ParsePKIXPublicKey(block.Bytes)
		if err != nil {
			return nil, err
		}
		key, ok := pub.(*rsa.PublicKey)
		if !ok {
			return nil, errors.New("attestation key is not RSA")
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuTime reads a process's utime+stime from /proc.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS reads a process's VmHWM (peak resident set) in bytes.
func peakRSS(pid int) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTotal sums CPU time over the serving processes.
func (f *fleet) cpuTotal() (time.Duration, error) {
	var sum time.Duration
	for _, d := range f.all() {
		t, err := cpuTime(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// rssTotal sums peak RSS over the serving processes.
func (f *fleet) rssTotal() (int64, error) {
	var sum int64
	for _, d := range f.all() {
		b, err := peakRSS(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}
