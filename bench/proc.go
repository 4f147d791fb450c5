package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one probed or zrouted process the benchmark started.
type child struct {
	name string
	bin  string
	args []string // without -addr
	addr string   // 127.0.0.1:port once listening
	cmd  *exec.Cmd
	// drained is closed once the stdout reader has seen EOF, so Wait
	// does not close the pipe under it.
	drained chan struct{}
}

// procs tracks every live child so that any exit path can kill them.
var procs struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

const startTimeout = 20 * time.Second

// startChild launches bin on addr ("127.0.0.1:0" picks a free port)
// in its own process group and returns once the process has printed
// the address it listens on. Standard error goes to logPath.
func startChild(name, bin, addr, logPath string, args ...string) (*child, error) {
	c := &child{name: name, bin: bin, args: args, drained: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// Own process group, so the group can be killed as one; and the
	// kernel kills the child should the benchmark itself be killed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	c.cmd.Stderr = logf
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*child]struct{})
	}
	procs.live[c] = struct{}{}
	procs.mu.Unlock()

	ready := make(chan string, 1)
	go func() {
		defer close(c.drained)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on 127.0.0.1:"); i >= 0 && !sent {
				ready <- strings.Fields(line[i+4:])[0]
				sent = true
			}
		}
		if !sent {
			ready <- ""
		}
	}()
	select {
	case a := <-ready:
		if a == "" {
			c.kill()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("%s exited before listening: %s", name, lastLines(string(tail), 5))
		}
		c.addr = a
		return c, nil
	case <-time.After(startTimeout):
		c.kill()
		return nil, fmt.Errorf("%s did not listen within %s", name, startTimeout)
	}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// kill SIGKILLs the child's process group and waits until it is gone.
func (c *child) kill() {
	if c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: already gone
	}
	<-c.drained
	_ = c.cmd.Wait() // "signal: killed" is the expected outcome
	procs.mu.Lock()
	delete(procs.live, c)
	procs.mu.Unlock()
}

// restart starts the same program again on the address it had.
func (c *child) restart(logPath string) (*child, error) {
	return startChild(c.name, c.bin, c.addr, logPath, c.args...)
}

// killAll is the last-resort cleanup for signal and watchdog exits.
func killAll() {
	procs.mu.Lock()
	live := make([]*child, 0, len(procs.live))
	for c := range procs.live {
		live = append(live, c)
	}
	procs.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// cpuSeconds returns the user+system CPU time the process has used,
// from /proc/<pid>/stat (clock ticks of 1/100 s).
func cpuSeconds(pid int) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields are counted after ")".
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// selfCPUSeconds is the benchmark process's own CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's VmHWM.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
