package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process the benchmark started.
type proc struct {
	name       string
	cmd        *exec.Cmd
	port       int // listening port; 0 for processes that serve nothing
	gomaxprocs int
	done       chan struct{} // closed once Wait returned
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// procSet owns every child process of a run; stopAll ends them all and
// waits for each, so no process outlives the benchmark.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start launches bin with args at serverNice with an explicit
// GOMAXPROCS, stdout and stderr appended to logPath.
func (ps *procSet) start(name, bin string, args []string, gomaxprocs, port int, logPath string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := startNiced(cmd); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, port: port, gomaxprocs: gomaxprocs, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark ends its children itself
		logf.Close()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

// stop sends SIGTERM, which dpserve answers with a graceful drain, and
// escalates to SIGKILL after five seconds; it returns once p exited.
func (ps *procSet) stop(p *proc) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if p already exited
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.procs {
		if q == p {
			ps.procs = append(ps.procs[:i], ps.procs[i+1:]...)
			break
		}
	}
}

// stopAll stops every process still running.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	live := append([]*proc(nil), ps.procs...)
	ps.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range live {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			ps.stop(p)
		}(p)
	}
	wg.Wait()
}

// serverNice is the nice value of every serving process; the driver
// stays at 0. The driver and the servers share the host's CPUs, and a
// waking dispatcher or connection goroutine then preempts a server
// instead of queueing behind it.
const serverNice = 5

// startNiced starts cmd from an OS thread of its own lowered to
// serverNice; the child inherits the value for all of its threads. The
// thread stays locked, so the runtime ends it with the goroutine and no
// other goroutine ever runs at that value. Raising a nice value needs
// no privilege.
func startNiced(cmd *exec.Cmd) error {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, serverNice); err != nil {
			errc <- err
			return
		}
		errc <- cmd.Start()
	}()
	return <-errc
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// The /proc readers below observe child processes from outside. Go
// processes keep their OS threads, so sums over /proc/<pid>/task cover
// the whole process.

// cpuNanos returns the CPU time (user + system) of pid's threads in
// nanoseconds, from the first field of each thread's schedstat.
func cpuNanos(pid int) (int64, error) {
	var total int64
	err := eachTask(pid, "schedstat", func(data []byte) error {
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return fmt.Errorf("empty schedstat")
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		total += v
		return err
	})
	return total, err
}

// ctxSwitches returns the voluntary plus involuntary context switches
// of pid's threads.
func ctxSwitches(pid int) (int64, error) {
	var total int64
	err := eachTask(pid, "status", func(data []byte) error {
		for _, key := range []string{"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"} {
			v, err := statusField(data, key)
			if err != nil {
				return err
			}
			total += v
		}
		return nil
	})
	return total, err
}

func eachTask(pid int, file string, fn func([]byte) error) error {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), file))
		if err != nil {
			continue // the thread exited between ReadDir and ReadFile
		}
		if err := fn(data); err != nil {
			return fmt.Errorf("%s/%s/%s: %w", dir, e.Name(), file, err)
		}
	}
	return nil
}

// statusField returns the leading integer of a "key:" line of a
// /proc status file.
func statusField(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == key {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s", key)
}

// peakRSSKB returns pid's peak resident set size (VmHWM) in KiB.
func peakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return statusField(data, "VmHWM")
}

// userSysTicks returns pid's user and system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat).
func userSysTicks(pid int) (user, sys int64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name in field 2 may contain spaces; fields resume
	// after its closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	user, err = strconv.ParseInt(f[11], 10, 64)
	if err == nil {
		sys, err = strconv.ParseInt(f[12], 10, 64)
	}
	return user, sys, err
}

// clockTicksPerSecond is USER_HZ, fixed at 100 on Linux.
const clockTicksPerSecond = 100

// procSnap is one reading of the per-process counters a phase reports
// as deltas.
type procSnap struct {
	cpuNs     int64
	userTicks int64
	sysTicks  int64
	switches  int64
}

func snapProcs(ps []*proc) (procSnap, error) {
	var s procSnap
	for _, p := range ps {
		ns, err := cpuNanos(p.pid())
		if err != nil {
			return s, err
		}
		u, sy, err := userSysTicks(p.pid())
		if err != nil {
			return s, err
		}
		cs, err := ctxSwitches(p.pid())
		if err != nil {
			return s, err
		}
		s.cpuNs += ns
		s.userTicks += u
		s.sysTicks += sy
		s.switches += cs
	}
	return s, nil
}

func (s procSnap) sub(o procSnap) procSnap {
	return procSnap{s.cpuNs - o.cpuNs, s.userTicks - o.userTicks, s.sysTicks - o.sysTicks, s.switches - o.switches}
}

func (s procSnap) add(o procSnap) procSnap {
	return procSnap{s.cpuNs + o.cpuNs, s.userTicks + o.userTicks, s.sysTicks + o.sysTicks, s.switches + o.switches}
}

// hostCPUTicks returns the steal time and the total time of all CPUs in
// clock ticks, from the "cpu" line of /proc/stat. Steal is time the
// hypervisor gave this machine's CPUs to another guest.
func hostCPUTicks() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("no cpu line in /proc/stat")
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// activeOpens returns the TCP connections opened in this network
// namespace so far (ActiveOpens in /proc/net/snmp). Two reads bracket a
// phase; a scan of /proc/net/tcp every few milliseconds instead cost the
// driver CPU that grew with the TIME_WAIT sockets earlier runs left.
func activeOpens() (int64, error) {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Tcp:" {
			continue
		}
		if names == nil {
			names = f
			continue
		}
		for i, n := range names {
			if n == "ActiveOpens" && i < len(f) {
				return strconv.ParseInt(f[i], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no Tcp ActiveOpens in /proc/net/snmp")
}
