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
	"syscall"
	"time"

	"repro/internal/server"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux build the Go toolchain supports).
const clockTicks = 100

// proc is one running fftd.
type proc struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	done   chan struct{} // closed once the process has exited and been reaped
	err    error         // Wait's result, valid after done
	stderr bytes.Buffer  // valid after done
}

// fleet is the fftd processes of one deployment; procs[0] is the entry
// node the generator talks to.
type fleet struct {
	procs []*proc
	http  *http.Client // readiness probes and /metrics scrapes
}

// startFleet launches n fftd processes on loopback with the shipped
// defaults. More than one forms a cluster ring. Each request log line
// goes to /dev/null (a nil Stdout); stderr is kept for diagnostics.
func startFleet(fftd string, n int, pencilMem int64) (*fleet, error) {
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, err
	}
	f := &fleet{http: &http.Client{Timeout: 10 * time.Second}}
	for i := 0; i < n; i++ {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i])}
		if n > 1 {
			var peers []string
			for j := 0; j < n; j++ {
				if j != i {
					peers = append(peers, fmt.Sprintf("127.0.0.1:%d", ports[n+j]))
				}
			}
			args = append(args, "-cluster", fmt.Sprintf("127.0.0.1:%d", ports[n+i]), "-peers", strings.Join(peers, ","))
		}
		if pencilMem > 0 {
			args = append(args, "-pencil-mem", strconv.FormatInt(pencilMem, 10))
		}
		p := &proc{cmd: exec.Command(fftd, args...), base: fmt.Sprintf("http://127.0.0.1:%d", ports[i]), done: make(chan struct{})}
		p.cmd.Stderr = &p.stderr
		// The kernel kills the daemon if this process dies first, so no
		// fftd outlives the benchmark.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := p.cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("start fftd: %w", err)
		}
		go func() {
			p.err = p.cmd.Wait()
			close(p.done)
		}()
		f.procs = append(f.procs, p)
	}
	return f, nil
}

// freePorts reserves n distinct loopback ports by binding them all at
// once, then releases them for the daemons to bind.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// stop kills every daemon and waits until each has been reaped.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range f.procs {
		<-p.done
	}
	f.http.CloseIdleConnections()
}

// waitReady polls every /readyz until it answers 200.
func (f *fleet) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, p := range f.procs {
		for {
			if code, _, err := f.get(ctx, p.base+"/readyz", ""); err == nil && code == http.StatusOK {
				break
			}
			select {
			case <-p.done:
				return fmt.Errorf("fftd exited before ready: %v: %s", p.err, p.stderr.String())
			case <-ctx.Done():
				return fmt.Errorf("fftd at %s not ready: %w", p.base, ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

func (f *fleet) get(ctx context.Context, url, accept string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// counters are the server-side counts the per-layer metrics take deltas
// of, summed over the daemons.
type counters struct {
	gcCycles               float64
	poolRejected           int64
	coalesced              int64
	cacheHits, cacheMisses int64
	pencilRuns             int64
	pencilRPCs             int64
	pencilWaves            int64
	pencilWire             int64 // bytes sent + received by the coordinator
	pencilFloor            int64
}

// add returns c + sign·o, field by field.
func (c counters) add(o counters, sign int64) counters {
	return counters{
		gcCycles:     c.gcCycles + float64(sign)*o.gcCycles,
		poolRejected: c.poolRejected + sign*o.poolRejected,
		coalesced:    c.coalesced + sign*o.coalesced,
		cacheHits:    c.cacheHits + sign*o.cacheHits,
		cacheMisses:  c.cacheMisses + sign*o.cacheMisses,
		pencilRuns:   c.pencilRuns + sign*o.pencilRuns,
		pencilRPCs:   c.pencilRPCs + sign*o.pencilRPCs,
		pencilWaves:  c.pencilWaves + sign*o.pencilWaves,
		pencilWire:   c.pencilWire + sign*o.pencilWire,
		pencilFloor:  c.pencilFloor + sign*o.pencilFloor,
	}
}

// cpuTicks sums utime + stime over the daemons.
func (f *fleet) cpuTicks() (int64, error) {
	var total int64
	for _, p := range f.procs {
		ticks, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += ticks
	}
	return total, nil
}

// sample reads counters from every /metrics, in both its JSON and
// Prometheus forms.
func (f *fleet) sample(ctx context.Context) (counters, error) {
	var c counters
	for _, p := range f.procs {
		code, body, err := f.get(ctx, p.base+"/metrics", "")
		if err != nil || code != http.StatusOK {
			return c, fmt.Errorf("scrape %s/metrics: status %d: %v", p.base, code, err)
		}
		var snap server.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return c, fmt.Errorf("decode %s/metrics: %w", p.base, err)
		}
		c.poolRejected += snap.Queue.Rejected
		c.coalesced += snap.Coalesced
		c.cacheHits += snap.PlanCache.Hits
		c.cacheMisses += snap.PlanCache.Misses
		if ps := snap.Pencil; ps != nil {
			c.pencilRuns += ps.Runs2D + ps.Runs3D
			c.pencilRPCs += ps.RPCs()
			c.pencilWaves += ps.Waves
			c.pencilWire += ps.WireBytesSent + ps.WireBytesRecv
			c.pencilFloor += ps.CommFloorBytes
		}

		code, body, err = f.get(ctx, p.base+"/metrics", "text/plain")
		if err != nil || code != http.StatusOK {
			return c, fmt.Errorf("scrape %s/metrics (text): status %d: %v", p.base, code, err)
		}
		gc, err := promValue(body, "go_gc_cycles_total")
		if err != nil {
			return c, fmt.Errorf("%s/metrics: %w", p.base, err)
		}
		c.gcCycles += gc
	}
	return c, nil
}

// rssPeakMB sums VmHWM, the resident-set high-water mark, over the
// daemons.
func (f *fleet) rssPeakMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		kb, err := statusKB(p.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// cpuTicks returns utime + stime of pid, all threads.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return utime + stime, nil
}

// statusKB reads one "Key:   123 kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// promValue finds an unlabelled sample in a Prometheus text exposition.
func promValue(exposition []byte, name string) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no %s sample", name)
}
