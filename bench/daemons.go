package main

import (
	"bufio"
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

// daemon is one bcserved or bcrouter process started by the harness.
type daemon struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	args []string
	log  *os.File
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// cluster is the set of daemons of one workload: front is the base URL the
// load is sent to (the single bcserved, or the router).
type cluster struct {
	binDir  string
	workDir string
	place   *placement
	daemons []*daemon
	front   string
}

// daemonAttr makes the kernel kill a daemon when the harness dies, so that
// even a harness stopped with SIGKILL leaves no process behind.
var daemonAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again before the daemon binds it; nothing else on the benchmark box
// competes for ports in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start executes one daemon on a free port with its output going to
// <workDir>/<name>.log.
func (c *cluster) start(name, binary string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(filepath.Join(c.workDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, base: "http://" + addr, log: logf,
		args: append([]string{"-addr", addr, "-log-level", "warn"}, args...)}
	if err := c.exec(d, filepath.Join(c.binDir, binary)); err != nil {
		logf.Close()
		return nil, err
	}
	c.daemons = append(c.daemons, d)
	return d, nil
}

// exec starts d's process on the daemons' CPUs and arranges for it to be
// waited for.
func (c *cluster) exec(d *daemon, path string) error {
	d.cmd = exec.Command(path, d.args...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	d.cmd.SysProcAttr = daemonAttr
	d.exited = make(chan struct{})
	if err := c.place.startOnDaemonCPUs(d.cmd.Start); err != nil {
		return fmt.Errorf("starting %s: %w", d.name, err)
	}
	go func(cmd *exec.Cmd, exited chan struct{}) {
		cmd.Wait() //nolint:errcheck // the exit status of a killed daemon carries no information
		close(exited)
	}(d.cmd, d.exited)
	return nil
}

// awaitReady polls d's /readyz until it answers 200, the daemon exits or the
// deadline passes.
func awaitReady(ctl *http.Client, d *daemon, deadline time.Time) error {
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited during start-up (see %s)", d.name, d.log.Name())
		default:
		}
		resp, err := ctl.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready in time (see %s)", d.name, d.log.Name())
}

// startCluster executes the daemons of w against graphPath and returns once
// every /readyz answers 200. The returned duration is exec → all ready: graph
// load, Brandes initialisation, store creation and, for the sharded
// topology, the router's bootstrap. State directories live under
// workDir/state and are reused by a restart on the same cluster value.
func startCluster(ctl *http.Client, w workloadSpec, place *placement, binDir, workDir, graphPath string) (*cluster, time.Duration, error) {
	c := &cluster{binDir: binDir, workDir: workDir, place: place}
	state := filepath.Join(workDir, "state")
	deadline := time.Now().Add(2 * time.Minute)
	begin := time.Now()
	fail := func(err error) (*cluster, time.Duration, error) {
		c.kill()
		return nil, 0, err
	}
	switch w.Topology {
	case topoShard2:
		var shards []string
		for i := 0; i < 2; i++ {
			dir := filepath.Join(state, fmt.Sprintf("shard%d", i))
			d, err := c.start(fmt.Sprintf("shard%d", i), "bcserved",
				"-graph", graphPath, "-workers", "1", "-shard", fmt.Sprintf("%d/2", i),
				"-wal-dir", filepath.Join(dir, "wal"), "-fsync", "off",
				"-snapshot-dir", filepath.Join(dir, "snap"), "-snapshot-interval", "0")
			if err != nil {
				return fail(err)
			}
			shards = append(shards, d.base)
		}
		// The router's bootstrap does not retry an unreachable shard, so it
		// starts only once both shards answer.
		for _, d := range c.daemons {
			if err := awaitReady(ctl, d, deadline); err != nil {
				return fail(err)
			}
		}
		r, err := c.start("router", "bcrouter", "-shards", strings.Join(shards, ","))
		if err != nil {
			return fail(err)
		}
		if err := awaitReady(ctl, r, deadline); err != nil {
			return fail(err)
		}
		c.front = r.base
	default:
		args := []string{"-graph", graphPath, "-workers", "1"}
		if w.Durable {
			args = append(args,
				"-store-dir", filepath.Join(state, "store"),
				"-wal-dir", filepath.Join(state, "wal"), "-fsync", "batch",
				"-snapshot-dir", filepath.Join(state, "snap"), "-snapshot-interval", "0")
		}
		d, err := c.start("bcserved", "bcserved", args...)
		if err != nil {
			return fail(err)
		}
		if err := awaitReady(ctl, d, deadline); err != nil {
			return fail(err)
		}
		c.front = d.base
	}
	return c, time.Since(begin), nil
}

// restart executes d's binary again with the same arguments (same address,
// same state directories) once d has ended, and returns exec → /readyz 200.
func (c *cluster) restart(ctl *http.Client, d *daemon) (time.Duration, error) {
	begin := time.Now()
	if err := c.exec(d, d.cmd.Path); err != nil {
		return 0, err
	}
	if err := awaitReady(ctl, d, time.Now().Add(2*time.Minute)); err != nil {
		return 0, err
	}
	return time.Since(begin), nil
}

// signalAndWait sends sig to d and waits for it to end.
func (d *daemon) signalAndWait(sig syscall.Signal) {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(sig) //nolint:errcheck // the process may have just exited
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // last resort
		<-d.exited
	}
}

// kill stops every daemon with SIGKILL, front first, waits until each has
// ended and closes the log files. The benchmark never needs a graceful
// shutdown: nothing reads the state directories afterwards.
func (c *cluster) kill() {
	for i := len(c.daemons) - 1; i >= 0; i-- {
		c.daemons[i].signalAndWait(syscall.SIGKILL)
	}
	for _, d := range c.daemons {
		d.log.Close()
	}
	c.daemons = nil
}

// wipeState removes the daemons' state directories, so the next start is a
// first start.
func (c *cluster) wipeState() error {
	return os.RemoveAll(filepath.Join(c.workDir, "state"))
}

// rssPeakMB sums VmHWM, the peak resident set size, over the daemons.
func (c *cluster) rssPeakMB() (float64, error) {
	total := 0.0
	for _, d := range c.daemons {
		kb, err := vmHWMkB(d.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		total += float64(kb) / 1024
	}
	return total, nil
}

func vmHWMkB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				return strconv.ParseInt(fields[0], 10, 64)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// buildDaemons compiles bcserved and bcrouter from the checkout at root into
// binDir. It runs once per invocation and is not part of any metric.
func buildDaemons(ctx context.Context, root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(os.PathSeparator),
		"./cmd/bcserved", "./cmd/bcrouter")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/bcserved ./cmd/bcrouter: %w\n%s", err, out)
	}
	return nil
}
