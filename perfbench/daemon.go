package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cerfixd child process serving a saved instance.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port/api/v1
	jobsDir string
	started time.Time
	exited  chan struct{}
	log     *os.File
}

// daemonArgs are the flags every benchmark daemon gets besides -addr,
// -load, -jobs-dir and -jobs-input-root. The columnar packer is off
// (-pack-interval 0) so no background packing falls inside a measured
// window; everything else is the cerfixd default.
var daemonArgs = []string{"-pack-interval", "0", "-drain", "5s"}

// startDaemon execs cerfixd on a free loopback port with a fresh jobs
// directory under work. The caller must stop it.
func startDaemon(bin, work, instDir, inputRoot string, boot int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-boot%d", filepath.Base(instDir), boot)
	jobsDir := filepath.Join(work, "jobs", name)
	if err := os.RemoveAll(jobsDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(work, "logs"), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(work, "logs", name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-load", instDir, "-jobs-dir", jobsDir, "-jobs-input-root", inputRoot}, daemonArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A benchmark killed outright cannot stop its daemons; the kernel
	// does it then.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr + "/api/v1", jobsDir: jobsDir, exited: make(chan struct{}), log: logf}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start cerfixd: %w", err)
	}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// rssPeakMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// outlives the grace period. It always waits for the exit.
func (d *daemon) stop() {
	defer d.log.Close()
	if !d.alive() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// logTail returns the end of the daemon's log for error reports.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return string(data)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
