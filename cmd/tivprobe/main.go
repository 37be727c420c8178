// Command tivprobe is the deployment face of the measurement layer:
// UDP RTT agents that produce the delay matrices every analysis in
// this repository consumes.
//
// Run an agent on each host:
//
//	tivprobe -serve 0.0.0.0:7777
//
// Measure from this host to a set of agents:
//
//	tivprobe -probe host1:7777,host2:7777 -count 5
//
// Or demonstrate a full matrix measurement on loopback:
//
//	tivprobe -mesh 16 -out matrix.csv
//
// With -watch, the mesh keeps re-measuring and feeds every round of
// live probes into a live tivaware service (incremental monitoring),
// reporting the violating triangle fraction and the worst TIV edges
// as they move:
//
//	tivprobe -mesh 16 -watch 5 -top 3
//
// With -api, the watcher additionally serves the live service over
// the tivd HTTP API at the given address and routes its own per-round
// queries through a tivclient connected to it — a full client↔daemon
// round trip over the wire, with the API left up for external
// consumers (curl, tivclient) for the duration of the watch:
//
//	tivprobe -mesh 16 -watch 5 -api 127.0.0.1:7070
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/netprobe"
	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tivprobe:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tivprobe", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		serve    = fs.String("serve", "", "run a probe agent on this UDP address until -duration elapses")
		duration = fs.Duration("duration", 0, "how long to serve (0 = forever)")
		probe    = fs.String("probe", "", "comma-separated agent addresses to measure from this host")
		count    = fs.Int("count", 3, "probes per target; the minimum RTT is reported")
		timeout  = fs.Duration("timeout", time.Second, "per-probe timeout")
		mesh     = fs.Int("mesh", 0, "run this many loopback agents and measure their full matrix")
		out      = fs.String("out", "", "matrix output file for -mesh (default stdout)")
		watch    = fs.Int("watch", 0, "re-measure the mesh this many rounds, feeding a live TIV monitor")
		top      = fs.Int("top", 5, "worst TIV edges to report per -watch round")
		api      = fs.String("api", "", "with -watch: serve the live service over the tivd HTTP API on this address and query it through tivclient")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	modes := 0
	for _, on := range []bool{*serve != "", *probe != "", *mesh > 0} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one of -serve, -probe, -mesh required")
	}

	switch {
	case *serve != "":
		return runServe(stdout, *serve, *duration)
	case *probe != "":
		return runProbe(stdout, *probe, *count, *timeout)
	default:
		if *watch < 0 || *top < 0 {
			return fmt.Errorf("-watch and -top must be >= 0")
		}
		if *api != "" && *watch == 0 {
			return fmt.Errorf("-api requires -watch")
		}
		return runMesh(stdout, *mesh, *out, *timeout, *watch, *top, *api)
	}
}

func runServe(stdout io.Writer, addr string, duration time.Duration) error {
	agent, err := netprobe.NewAgent(addr)
	if err != nil {
		return err
	}
	defer agent.Close()
	fmt.Fprintf(stdout, "serving on %s\n", agent.Addr())
	if duration > 0 {
		time.Sleep(duration)
		return nil
	}
	select {} // serve forever; the agent answers in the background
}

func runProbe(stdout io.Writer, targets string, count int, timeout time.Duration) error {
	if count < 1 {
		return fmt.Errorf("count %d must be >= 1", count)
	}
	agent, err := netprobe.NewAgent(":0")
	if err != nil {
		return err
	}
	defer agent.Close()
	fmt.Fprintln(stdout, "target\tmin_rtt_ms\tprobes_ok")
	for _, target := range strings.Split(targets, ",") {
		target = strings.TrimSpace(target)
		if target == "" {
			continue
		}
		addr, err := net.ResolveUDPAddr("udp", target)
		if err != nil {
			return fmt.Errorf("resolving %q: %w", target, err)
		}
		best, ok := 0.0, 0
		for p := 0; p < count; p++ {
			rtt, err := agent.Probe(addr, netprobe.ProbeOptions{Timeout: timeout})
			if err != nil {
				continue
			}
			if ok == 0 || rtt < best {
				best = rtt
			}
			ok++
		}
		if ok == 0 {
			fmt.Fprintf(stdout, "%s\t-\t0/%d\n", target, count)
			continue
		}
		fmt.Fprintf(stdout, "%s\t%.3f\t%d/%d\n", target, best, ok, count)
	}
	return nil
}

func runMesh(stdout io.Writer, n int, out string, timeout time.Duration, watch, top int, api string) error {
	cluster, err := netprobe.NewCluster(n, "127.0.0.1", netprobe.ProbeOptions{Timeout: timeout, Retries: 1})
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := cluster.WaitReady(5 * time.Second); err != nil {
		return err
	}
	m, err := cluster.MeasureMatrix(8)
	if err != nil {
		return err
	}
	var rtts []float64
	m.EachEdge(func(i, j int, d float64) bool {
		rtts = append(rtts, d)
		return true
	})
	sort.Float64s(rtts)
	if len(rtts) > 0 {
		fmt.Fprintf(stdout, "# mesh of %d agents: %d pairs, median RTT %.3f ms, max %.3f ms\n",
			n, len(rtts), rtts[len(rtts)/2], rtts[len(rtts)-1])
	}
	if watch > 0 {
		if err := runWatch(stdout, cluster, m, watch, top, api); err != nil {
			return err
		}
	}
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		return delayspace.WriteCSV(f, m)
	}
	return delayspace.WriteCSV(w, m)
}

// watchReporter answers the watch loop's per-round questions —
// violating triangle fraction and worst edges — either in-process
// from the live service or over the wire from a tivd daemon.
type watchReporter interface {
	fraction() (float64, error)
	topEdges(k int) ([]delayspace.Edge, error)
}

type localReporter struct{ svc *tivaware.Service }

func (r localReporter) fraction() (float64, error) { return r.svc.ViolatingTriangleFraction(0), nil }
func (r localReporter) topEdges(k int) ([]delayspace.Edge, error) {
	return r.svc.TopEdges(k), nil
}

type remoteReporter struct {
	ctx    context.Context
	client *tivclient.Client
}

func (r remoteReporter) fraction() (float64, error) {
	res, err := r.client.Query(r.ctx, tivaware.Query{Kind: tivaware.KindAnalysis})
	if err != nil {
		return 0, err
	}
	return res.Analysis.ViolatingTriangleFraction(), nil
}
func (r remoteReporter) topEdges(k int) ([]delayspace.Edge, error) {
	res, err := r.client.Query(r.ctx, tivaware.Query{Kind: tivaware.KindTop, K: k})
	return res.Edges, err
}

// runWatch keeps re-measuring the mesh and streams each round of live
// probes into a live tivaware service (an incremental TIV monitor
// under the hood): the deployment-shaped version of the paper's pitch
// that systems should detect and react to violations at runtime, not
// analyze a frozen matrix offline. The final round's measurements stay
// in m, so the matrix the caller writes out reflects what the service
// last saw.
//
// With api non-empty, the live service is additionally served over
// the tivd HTTP API at that address for the duration of the watch,
// and the loop's own reporting queries go through a tivclient
// connected to it — every number printed then made a round trip over
// the wire.
func runWatch(stdout io.Writer, cluster *netprobe.Cluster, m *delayspace.Matrix, rounds, top int, api string) error {
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true})
	if err != nil {
		return err
	}
	var reporter watchReporter = localReporter{svc: svc}
	if api != "" {
		daemon, err := tivd.New(svc, tivd.Options{})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", api)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: daemon.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer func() {
			daemon.Close()
			_ = hs.Shutdown(context.Background())
		}()
		fmt.Fprintf(stdout, "# tivd API on http://%s (querying through tivclient)\n", ln.Addr())
		reporter = remoteReporter{ctx: context.Background(), client: tivclient.New("http://"+ln.Addr().String(), tivclient.Options{})}
	}
	frac, err := reporter.fraction()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# monitor baseline: violating triangle fraction %.4f\n", frac)
	if err := printTopEdges(stdout, reporter, m, top); err != nil {
		return err
	}
	var updates []tiv.Update
	for round := 1; round <= rounds; round++ {
		fresh, err := cluster.MeasureMatrix(8)
		if err != nil {
			return err
		}
		updates = updates[:0]
		fresh.EachEdge(func(i, j int, d float64) bool {
			updates = append(updates, tiv.Update{I: i, J: j, RTT: d})
			return true
		})
		cs, err := svc.ApplyBatch(updates)
		if err != nil {
			return err
		}
		if frac, err = reporter.fraction(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# watch round %d: %d probes applied, violating fraction %.4f, violated edges +%d/-%d\n",
			round, len(updates), frac, len(cs.NewlyViolated), len(cs.Cleared))
		if err := printTopEdges(stdout, reporter, m, top); err != nil {
			return err
		}
	}
	return nil
}

func printTopEdges(stdout io.Writer, reporter watchReporter, m *delayspace.Matrix, top int) error {
	edges, err := reporter.topEdges(top)
	if err != nil {
		return err
	}
	for _, e := range edges {
		fmt.Fprintf(stdout, "#   top edge %d-%d: severity %.4f, rtt %.3f ms\n",
			e.I, e.J, e.Delay, m.At(e.I, e.J))
	}
	return nil
}
