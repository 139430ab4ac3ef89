package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// listenTimeout bounds how long a daemon may take to print its
// listening line (it loads the catalog first).
const listenTimeout = 60 * time.Second

// proc is one spawned server process.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  chan string // receives the base URL from the listening line
	base string      // the base URL, once waitListening returned it

	// gcCycles is the latest "gc N" number the runtime printed to
	// stderr (GODEBUG=gctrace=1 only).
	gcCycles atomic.Int64

	mu   sync.Mutex
	tail []string // last output lines, for error reports

	exited  chan struct{} // closed once the process has been reaped
	waitErr error
}

// spawn starts bin with args and the given GOMAXPROCS. The process is
// killed if the benchmark dies (Pdeathsig); stop ends it otherwise.
func spawn(name, bin string, args []string, procs int, gctrace bool) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: make(chan string, 1), exited: make(chan struct{})}
	var readers sync.WaitGroup
	readers.Add(2)
	go p.scan(stdout, &readers)
	go p.scan(stderr, &readers)
	go func() {
		// Wait must not run before the pipes are drained.
		readers.Wait()
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *proc) scan(r io.Reader, wg *sync.WaitGroup) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, url, ok := strings.Cut(line, "listening on "); ok {
			select {
			case p.url <- strings.TrimSpace(url):
			default:
			}
		}
		if n, ok := parseGCTrace(line); ok {
			p.gcCycles.Store(n)
			continue
		}
		p.mu.Lock()
		p.tail = append(p.tail, line)
		if len(p.tail) > 20 {
			p.tail = p.tail[1:]
		}
		p.mu.Unlock()
	}
}

// parseGCTrace reads the cycle number from a gctrace line
// ("gc 12 @0.345s 2%: ...").
func parseGCTrace(line string) (int64, bool) {
	rest, ok := strings.CutPrefix(line, "gc ")
	if !ok {
		return 0, false
	}
	num, _, ok := strings.Cut(rest, " @")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(num, 10, 64)
	return n, err == nil
}

// waitListening blocks until the process has printed its listening
// line and returns the base URL.
func (p *proc) waitListening() (string, error) {
	select {
	case u := <-p.url:
		p.base = u
		return u, nil
	case <-p.exited:
		return "", fmt.Errorf("%s exited before listening (%v): %s", p.name, p.waitErr, p.output())
	case <-time.After(listenTimeout):
		return "", fmt.Errorf("%s did not print its listening line within %v", p.name, listenTimeout)
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop asks the process to drain (SIGTERM), kills it if it has not
// exited within the grace period, and waits until it is reaped.
func (p *proc) stop() {
	if !p.alive() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // a process that just exited is reaped below
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}
