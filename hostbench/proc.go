package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is a child process (ptmserve or ptmbench) whose stdout is
// scanned line by line and whose stderr is kept as a bounded tail for
// failure reports.
type proc struct {
	name    string
	cmd     *exec.Cmd
	started hostMark // read just before exec

	mu      sync.Mutex
	lines   []string
	tail    []byte
	partial []byte
	onErr   func(p *proc, line string) // called per stderr line; may be nil

	exited chan struct{}
	state  *os.ProcessState
	err    error
}

const tailBytes = 4 << 10

type tailWriter struct{ p *proc }

func (t tailWriter) Write(b []byte) (int, error) {
	p := t.p
	p.mu.Lock()
	p.tail = append(p.tail, b...)
	if len(p.tail) > tailBytes {
		p.tail = append([]byte(nil), p.tail[len(p.tail)-tailBytes:]...)
	}
	var done []string
	if p.onErr != nil {
		p.partial = append(p.partial, b...)
		for {
			i := bytes.IndexByte(p.partial, '\n')
			if i < 0 {
				break
			}
			done = append(done, string(p.partial[:i]))
			p.partial = p.partial[i+1:]
		}
	}
	p.mu.Unlock()
	for _, line := range done {
		p.onErr(p, line)
	}
	return len(b), nil
}

// startProc launches the named binary with args and this process's
// environment plus env; onErr, if set, sees each stderr line as it
// arrives. The child is killed if this process dies first (Pdeathsig),
// and run.py kills the whole process group on its own timeout.
func (b *bench) startProc(name string, args, env []string, onErr func(*proc, string)) (*proc, error) {
	p := &proc{name: name, onErr: onErr, exited: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(b.bin, name), args...)
	if env != nil {
		p.cmd.Env = append(os.Environ(), env...)
	}
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.cmd.Stderr = tailWriter{p}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if p.started, err = markHost(); err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	b.procs = append(b.procs, p)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
		io.Copy(io.Discard, out)
	}()
	go func() {
		<-scanned
		err := p.cmd.Wait()
		p.mu.Lock()
		p.state, p.err = p.cmd.ProcessState, err
		p.mu.Unlock()
		close(p.exited)
	}()
	return p, nil
}

// stderrTail returns the last few KiB the child wrote to stderr.
func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.TrimSpace(string(p.tail))
}

func (p *proc) output() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.lines...)
}

// waitLine blocks until a stdout line containing substr appears, the
// child exits, or ctx ends.
func (p *proc) waitLine(ctx context.Context, substr string) (string, error) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	seen := 0
	for {
		lines := p.output()
		for ; seen < len(lines); seen++ {
			if strings.Contains(lines[seen], substr) {
				return lines[seen], nil
			}
		}
		select {
		case <-p.exited:
			if lines := p.output(); len(lines) > seen {
				continue
			}
			return "", p.failure(fmt.Sprintf("exited before printing %q", substr))
		case <-ctx.Done():
			return "", p.failure(fmt.Sprintf("no %q before the deadline", substr))
		case <-tick.C:
		}
	}
}

// failure formats an error carrying the child's exit state and stderr.
func (p *proc) failure(what string) error {
	msg := fmt.Sprintf("%s %s", p.name, what)
	select {
	case <-p.exited:
		msg += fmt.Sprintf(" (%v)", p.err)
		if p.err == nil {
			msg += fmt.Sprintf(" (%v)", p.state)
		}
	default:
	}
	if t := p.stderrTail(); t != "" {
		msg += "\nstderr tail:\n" + t
	}
	return fmt.Errorf("%s", msg)
}

// wait waits for exit and requires status 0.
func (p *proc) wait(ctx context.Context) error {
	select {
	case <-p.exited:
	case <-ctx.Done():
		p.kill()
		return p.failure("did not exit before the deadline")
	}
	if p.err != nil {
		return p.failure("failed")
	}
	return nil
}

// stop sends SIGTERM and requires a clean exit.
func (p *proc) stop(ctx context.Context) error {
	select {
	case <-p.exited:
		return p.failure("had already exited")
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	return p.wait(ctx)
}

// kill ends the child unconditionally and reaps it.
func (p *proc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.exited
}

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// cpuSeconds reads utime+stime of a live child from /proc/<pid>/stat.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("bad /proc stat for %s", p.name)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc stat for %s", p.name)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc.
const clockTicks = 100

// peakRSSMB reads VmHWM, the peak resident set, of a live child.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// usage reports the CPU seconds and peak RSS of an exited child.
func (p *proc) usage() (cpuS, rssMB float64) {
	ru, ok := p.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024
}

// The benchmark's host clock is wall time minus steal: the time the
// hypervisor kept this machine's CPUs from running although they had
// work, which Linux counts in /proc/stat. On a shared host steal runs
// at 20-50% for minutes on end and varies between runs, so wall time
// alone measures the neighbours as much as the program. A hostMark is
// a reading of both clocks.
type hostMark struct {
	wall  time.Time
	steal float64 // CPU seconds of steal, summed over the CPUs
	cpus  int
}

func markHost() (hostMark, error) {
	m := hostMark{wall: time.Now()}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m, err
	}
	lines := strings.Split(string(data), "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return m, fmt.Errorf("unexpected /proc/stat line %q", lines[0])
	}
	st, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return m, fmt.Errorf("bad steal in /proc/stat: %w", err)
	}
	m.steal = st / clockTicks
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") {
			m.cpus++
		}
	}
	if m.cpus == 0 {
		return m, fmt.Errorf("no per-CPU lines in /proc/stat")
	}
	return m, nil
}

// since returns the host seconds from m to now (wall seconds less the
// steal per CPU) and their share of the wall seconds, by which the
// benchmark scales every latency it measured in between.
func (m hostMark) since() (seconds, share float64, err error) {
	now, err := markHost()
	if err != nil {
		return 0, 0, err
	}
	wall := now.wall.Sub(m.wall).Seconds()
	seconds = wall - (now.steal-m.steal)/float64(m.cpus)
	if wall <= 0 || seconds <= 0 {
		return 0, 0, fmt.Errorf("host clock: %.3f s of wall time, %.3f s without steal", wall, seconds)
	}
	return seconds, seconds / wall, nil
}

// cpuNanos sums the time every thread of a live child has spent on a
// CPU (the first field of /proc/<pid>/task/*/schedstat). Linux keeps
// steal out of it, and it has nanosecond resolution.
func (p *proc) cpuNanos() (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for %s", p.name)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat for %s: %w", p.name, err)
		}
		sum += ns
	}
	return sum, nil
}
