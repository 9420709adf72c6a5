package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one started daemon: its process, the addresses it announced on
// standard output, and everything it printed.
type proc struct {
	name  string
	cmd   *exec.Cmd
	addrs map[string]string // banner prefix -> address
	out   bytes.Buffer      // stdout and stderr, guarded by mu
	mu    sync.Mutex
	done  chan struct{}
	err   error // exit status, set before done closes
}

// The banners the daemons (and the traced hosts, which print the same
// lines) announce their listeners with: the address follows the marker.
const (
	udpBanner     = " on udp://"
	metricsBanner = "introspection on http://"
)

var banners = []string{udpBanner, metricsBanner}

// startProc starts bin and waits until it has announced every wanted
// banner. The daemon is killed if that does not happen within 10 s.
func startProc(name, bin string, args, env []string, want ...string) (*proc, error) {
	p := &proc{name: name, addrs: map[string]string{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Env = append(os.Environ(), env...)
	// A daemon must not outlive a benchmark that is killed mid-run.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ready := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			for _, b := range banners {
				if i := strings.Index(line, b); i >= 0 {
					if f := strings.Fields(line[i+len(b):]); len(f) > 0 {
						p.addrs[b] = strings.TrimSuffix(f[0], "/metrics")
					}
				}
			}
			all := true
			for _, w := range want {
				if p.addrs[w] == "" {
					all = false
				}
			}
			p.mu.Unlock()
			if all {
				once.Do(func() { close(ready) })
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
		}
	}()
	go func() {
		wg.Wait()
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited during start-up (%v):\n%s", name, p.err, p.output())
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce %v within 10s:\n%s", name, want, p.output())
	}
}

func (p *proc) addr(banner string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addrs[banner]
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM, then SIGKILL after 5 s, and waits for the exit.
func (p *proc) stop() {
	if !p.alive() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpuNs is the process's CPU time: the on-CPU nanoseconds schedstat
// reports for each of its threads, summed. It has the same basis as
// /proc/<pid>/stat's utime+stime but is not rounded to clock ticks, which
// matters for the short set-up phase.
func (p *proc) cpuNs() (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
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

// procStatusMB reads one kB field of /proc/<pid>/status, in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, pid)
}

// snapshot is the counter and gauge part of a /metrics scrape.
type snapshot map[string]float64

func scrape(addr string) (snapshot, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	s := snapshot{}
	for k, v := range body.Counters {
		s[k] = v
	}
	for k, v := range body.Gauges {
		s[k] = v
	}
	return s, nil
}

// delta is after minus before for one name, or for the sum over every name
// with the given prefix and suffix when the name contains "*".
func delta(before, after snapshot, name string) float64 {
	pre, suf, wild := strings.Cut(name, "*")
	if !wild {
		return after[name] - before[name]
	}
	d := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, pre) && strings.HasSuffix(k, suf) && len(k) > len(pre)+len(suf) {
			d += v - before[k]
		}
	}
	return d
}

// writeZones writes the zone files into dir and returns authserver's
// -zone flags.
func writeZones(dir string) ([]string, error) {
	var args []string
	for _, origin := range []string{".", "example.test", "short.test", "nx.test"} {
		base := strings.Trim(origin, ".")
		if base == "" {
			base = "root"
		}
		path := filepath.Join(dir, base+".zone")
		if err := os.WriteFile(path, []byte(zones[origin]), 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-zone", origin+"="+path)
	}
	return args, nil
}
