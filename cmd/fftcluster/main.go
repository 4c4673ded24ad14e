// Command fftcluster inspects a running fftd cluster over the binary
// node-to-node protocol: membership and health, per-node serving
// counters, and the consistent-hash ring's shape-to-node assignment.
//
//	fftcluster status -peers=h1:9001,h2:9001,h3:9001
//	fftcluster ring   -peers=h1:9001,h2:9001,h3:9001
//	fftcluster ping   -peers=h1:9001,h2:9001
//
// status fetches each node's NodeStatus RPC (uptime, transform RPC and
// error counters, plan-cache occupancy). ring rebuilds the same ring
// the nodes use — membership plus vnode hashing is deterministic — and
// prints which node owns each representative transform shape. ping
// probes drain-aware readiness and exits non-zero when any peer is
// unreachable or draining, so it slots into deploy gates.
//
// Exit status: 0 when every probed peer is healthy, 1 when any is not,
// 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
)

func main() {
	flag.Usage = usage
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	peers := fs.String("peers", "", "comma-separated cluster addresses (required)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-probe dial and RPC timeout")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	_ = fs.Parse(os.Args[2:])

	addrs := splitPeers(*peers)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "fftcluster: -peers is required")
		os.Exit(2)
	}

	var ok bool
	switch cmd {
	case "status":
		ok = runStatus(addrs, *timeout, *asJSON)
	case "ring":
		ok = runRing(addrs, *timeout, *asJSON)
	case "ping":
		ok = runPing(addrs, *timeout, *asJSON)
	default:
		usage()
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: fftcluster <status|ring|ping> -peers=addr,addr,... [-timeout d] [-json]

  status  per-node health, serving counters and plan-cache occupancy
  ring    the shape-to-node assignment of the consistent-hash ring
  ping    drain-aware readiness probe; non-zero exit on any unready peer
`)
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// peerStatus is one row of the status report, JSON-ready.
type peerStatus struct {
	Addr   string              `json:"addr"`
	Err    string              `json:"error,omitempty"`
	Status *cluster.NodeStatus `json:"status,omitempty"`
}

func runStatus(addrs []string, timeout time.Duration, asJSON bool) bool {
	rows := make([]peerStatus, len(addrs))
	healthy := true
	for i, a := range addrs {
		rows[i].Addr = a
		st, err := cluster.ProbeStatus(a, timeout)
		if err != nil {
			rows[i].Err = err.Error()
			healthy = false
			continue
		}
		s := st
		rows[i].Status = &s
		if !st.Ready {
			healthy = false
		}
	}
	if asJSON {
		return emitJSON(rows) && healthy
	}
	t := report.New(fmt.Sprintf("cluster status (%d nodes)", len(addrs)),
		"node", "state", "uptime", "transform rpcs", "pencil rpcs", "rpc errors", "pings", "wire in/out", "plan cache", "pencil bands")
	for _, r := range rows {
		if r.Status == nil {
			t.MustAddRow(r.Addr, "unreachable: "+r.Err, "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		st := r.Status
		state := "ready"
		if !st.Ready {
			state = "draining"
		}
		pc := "-"
		if st.PlanCache != nil {
			pc = fmt.Sprintf("%d/%d (%d hits)", st.PlanCache.Size, st.PlanCache.Capacity, st.PlanCache.Hits)
		}
		bands := "-"
		if st.Pencil != nil {
			bands = fmt.Sprintf("%d open, %s/%s", st.Pencil.OpenJobs,
				sizeBytes(st.Pencil.BytesInUse), sizeBytes(st.Pencil.MemCap))
		}
		t.MustAddRow(r.Addr, state,
			(time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second).String(),
			strconv.FormatInt(st.TransformRPCs, 10),
			strconv.FormatInt(st.PencilRPCs, 10),
			strconv.FormatInt(st.RPCErrors, 10),
			strconv.FormatInt(st.Pings, 10),
			fmt.Sprintf("%d/%d", st.WireBytesRead, st.WireBytesWritten), pc, bands)
	}
	if err := t.Render(os.Stdout); err != nil {
		return false
	}
	return healthy
}

// sizeBytes renders a byte count with a binary-unit suffix, compact
// enough for one status cell.
func sizeBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ringShapes are the representative plan shapes the ring report maps to
// owners: enough sizes and kinds to show the spread without printing
// the whole keyspace.
func ringShapes() []cluster.ShapeKey {
	var shapes []cluster.ShapeKey
	for n := 64; n <= 1<<16; n <<= 2 {
		shapes = append(shapes,
			cluster.ShapeKey{N: n},
			cluster.ShapeKey{N: n, Inverse: true},
			cluster.ShapeKey{N: n, Real: true},
		)
	}
	return shapes
}

// ringRow is one shape assignment, JSON-ready.
type ringRow struct {
	Shape string   `json:"shape"`
	Owner string   `json:"owner"`
	Prefs []string `json:"preference_list"`
}

func runRing(addrs []string, timeout time.Duration, asJSON bool) bool {
	// Only live, ready members are in the real ring; probe first so the
	// printed assignment matches what the nodes are actually doing.
	var members []string
	healthy := true
	for _, a := range addrs {
		ready, err := cluster.ProbePing(a, timeout)
		if err != nil || !ready {
			healthy = false
			continue
		}
		members = append(members, a)
	}
	if len(members) == 0 {
		fmt.Fprintln(os.Stderr, "fftcluster: no ready members")
		return false
	}
	ring := cluster.NewRing(0)
	ring.SetMembers(members)

	shapes := ringShapes()
	rows := make([]ringRow, len(shapes))
	for i, sk := range shapes {
		prefs := ring.LookupN(sk.Hash(), 3)
		rows[i] = ringRow{Shape: sk.String(), Owner: prefs[0], Prefs: prefs}
	}
	if asJSON {
		return emitJSON(rows) && healthy
	}
	t := report.New(fmt.Sprintf("ring assignment (%d ready members)", len(members)),
		"shape", "owner", "failover order")
	for _, r := range rows {
		t.MustAddRow(r.Shape, r.Owner, strings.Join(r.Prefs[1:], " -> "))
	}
	if err := t.Render(os.Stdout); err != nil {
		return false
	}
	return healthy
}

// pingRow is one readiness probe, JSON-ready. WireVersion is the
// highest frame version the peer's pong advertised — during a rolling
// upgrade it shows which nodes can carry trace context.
type pingRow struct {
	Addr        string `json:"addr"`
	Ready       bool   `json:"ready"`
	WireVersion uint8  `json:"wire_version,omitempty"`
	Err         string `json:"error,omitempty"`
}

func runPing(addrs []string, timeout time.Duration, asJSON bool) bool {
	rows := make([]pingRow, len(addrs))
	healthy := true
	for i, a := range addrs {
		ver, ready, err := cluster.ProbeWire(a, timeout)
		rows[i] = pingRow{Addr: a, Ready: ready, WireVersion: ver}
		if err != nil {
			rows[i].Err = err.Error()
		}
		if err != nil || !ready {
			healthy = false
		}
	}
	if asJSON {
		return emitJSON(rows) && healthy
	}
	t := report.New("cluster readiness", "node", "state", "wire")
	for _, r := range rows {
		switch {
		case r.Err != "":
			t.MustAddRow(r.Addr, "unreachable: "+r.Err, "-")
		case r.Ready:
			t.MustAddRow(r.Addr, "ready", fmt.Sprintf("v%d", r.WireVersion))
		default:
			t.MustAddRow(r.Addr, "draining", fmt.Sprintf("v%d", r.WireVersion))
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		return false
	}
	return healthy
}

func emitJSON(v any) bool {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v) == nil
}
