package main

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

// notifyWriter captures output and signals once the serving line
// (carrying the bound address) has been written.
type notifyWriter struct {
	mu    sync.Mutex
	buf   strings.Builder
	ready chan struct{}
	once  sync.Once
}

var addrRe = regexp.MustCompile(`on http://(\S+)`)

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	s := w.buf.String()
	w.mu.Unlock()
	if addrRe.MatchString(s) {
		w.once.Do(func() { close(w.ready) })
	}
	return len(p), nil
}

func (w *notifyWriter) addr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := addrRe.FindStringSubmatch(w.buf.String())
	if m == nil {
		return ""
	}
	return m[1]
}

// TestDaemonEndToEnd boots the real daemon on an ephemeral port with
// a synthetic matrix, runs one client query and one SSE subscribe
// round-trip over real TCP, and shuts it down cleanly — the same
// sequence the CI smoke job runs against the built binary.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &notifyWriter{ready: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-synth", "32", "-live"}, w, ctx)
	}()
	select {
	case <-w.ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not start serving")
	}
	client := tivclient.New("http://"+w.addr(), tivclient.Options{})

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 32 || !h.Live {
		t.Fatalf("healthz = %+v, want 32 live nodes", h)
	}

	res, err := client.Query(ctx, tivaware.Query{Kind: tivaware.KindClosest, SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best := res.Selections[0]; best.Node == 0 || best.Delay <= 0 {
		t.Fatalf("closest = %+v", best)
	}

	// SSE round-trip: subscribe, force a violation through the wire,
	// expect its change set.
	subCtx, subCancel := context.WithCancel(ctx)
	defer subCancel()
	ready := make(chan struct{})
	events := make(chan tivwire.ChangeSet, 16)
	subDone := make(chan error, 1)
	go func() {
		subDone <- client.Subscribe(subCtx, ready, func(cs tivwire.ChangeSet) { events <- cs })
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("subscription handshake timed out")
	}
	// A huge RTT on (0,1) is guaranteed to create violations: any
	// third node measured to both endpoints witnesses one.
	if _, err := client.ApplyUpdate(ctx, 0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		found := false
		for _, e := range ev.NewlyViolated {
			if e.I == 0 && e.J == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("subscription event %+v does not flag edge (0,1)", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription event did not arrive")
	}
	subCancel()
	if err := <-subDone; err != nil {
		t.Errorf("Subscribe after cancel: %v", err)
	}

	// Clean shutdown.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(w.buf.String(), "shutting down") {
		t.Error("daemon did not log its shutdown")
	}
}

// startDaemon boots one daemon via run() and returns its bound
// address plus a channel carrying its exit error.
func startDaemon(t *testing.T, ctx context.Context, args []string) (addr string, w *notifyWriter, done chan error) {
	t.Helper()
	w = &notifyWriter{ready: make(chan struct{})}
	done = make(chan error, 1)
	go func() { done <- run(args, w, ctx) }()
	select {
	case <-w.ready:
	case err := <-done:
		t.Fatalf("daemon %v exited before serving: %v", args, err)
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon %v did not start serving", args)
	}
	return w.addr(), w, done
}

// TestGatewayDaemonEndToEnd boots three real shard daemons plus a
// `tivd -shards` gateway daemon over them — four HTTP servers over
// real TCP inside this process — and runs the full client round trip
// against the gateway: health, a scatter-gathered query, an update
// replicated across the shards, and its change set arriving on the
// fanned-in SSE stream. The wire protocol is the single-daemon one
// throughout; the client cannot tell it is talking to a cluster.
func TestGatewayDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var shardURLs []string
	var shardDone []chan error
	for s := 0; s < 3; s++ {
		addr, _, done := startDaemon(t, ctx, []string{"-listen", "127.0.0.1:0", "-synth", "24", "-live"})
		shardURLs = append(shardURLs, "http://"+addr)
		shardDone = append(shardDone, done)
	}
	gwAddr, gwW, gwDone := startDaemon(t, ctx, []string{"-listen", "127.0.0.1:0", "-shards", strings.Join(shardURLs, ",")})
	client := tivclient.New("http://"+gwAddr, tivclient.Options{})

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 24 || !h.Live {
		t.Fatalf("gateway healthz = %+v, want 24 live nodes", h)
	}

	res, err := client.Query(ctx, tivaware.Query{Kind: tivaware.KindClosest, SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best := res.Selections[0]; best.Node == 0 || best.Delay <= 0 {
		t.Fatalf("gateway closest = %+v", best)
	}

	// Subscribe through the gateway, update through the gateway: the
	// delta must come back on the fanned-in stream.
	subCtx, subCancel := context.WithCancel(ctx)
	defer subCancel()
	ready := make(chan struct{})
	events := make(chan tivwire.ChangeSet, 64)
	subDone := make(chan error, 1)
	go func() {
		subDone <- client.Subscribe(subCtx, ready, func(cs tivwire.ChangeSet) { events <- cs })
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("gateway subscription handshake timed out")
	}
	if _, err := client.ApplyUpdate(ctx, 0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for found := false; !found; {
		select {
		case ev := <-events:
			for _, e := range ev.NewlyViolated {
				if e.I == 0 && e.J == 1 {
					found = true
				}
			}
		case <-deadline:
			t.Fatal("violated-edge delta did not arrive through the gateway stream")
		}
	}
	subCancel()
	if err := <-subDone; err != nil {
		t.Errorf("Subscribe after cancel: %v", err)
	}

	// The update must have reached every shard replica.
	for s, u := range shardURLs {
		res, err := tivclient.New(u, tivclient.Options{}).Query(ctx, tivaware.Query{Kind: tivaware.KindDelay, I: 0, J: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := res.Delay, res.DelayOK; !ok || d != 1e6 {
			t.Errorf("shard %d delay(0,1) = (%g,%v), want the replicated 1e6", s, d, ok)
		}
	}

	// Clean shutdown of the whole fleet.
	cancel()
	for _, done := range append(shardDone, gwDone) {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("a daemon did not shut down")
		}
	}
	if !strings.Contains(gwW.buf.String(), "gateway over 3 shards") {
		t.Error("gateway daemon did not log its shard count")
	}
}

func TestFlagValidation(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("missing -in/-synth should error")
	}
	if err := run([]string{"-synth", "8", "-in", "x.csv"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("both -in and -synth should error")
	}
	if err := run([]string{"-synth", "8", "-live", "-sample", "4", "-listen", "127.0.0.1:0"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("live + sampled should error")
	}
	if err := run([]string{"-shards", "http://x", "-synth", "8"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("-shards + -synth should error")
	}
	if err := run([]string{"-shards", " , "}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("-shards without URLs should error")
	}
}

// TestChaosFlag boots the daemon with -chaos err=1 (every request
// answers an injected 503 envelope) and verifies the injected error
// reaches a client as a typed retryable "unavailable" — the wiring CI's
// chaos-smoke job depends on. A malformed spec must fail startup.
func TestChaosFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &notifyWriter{ready: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-synth", "16", "-chaos", "err=1"}, w, ctx)
	}()
	select {
	case <-w.ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not start serving")
	}
	client := tivclient.New("http://"+w.addr(), tivclient.Options{})
	_, err := client.Healthz(ctx)
	if err == nil {
		t.Fatal("healthz through err=1 chaos succeeded")
	}
	var wire *tivclient.Error
	if !errors.As(err, &wire) {
		t.Fatalf("injected fault surfaced as %T (%v), want *tivclient.Error", err, err)
	}
	if wire.Code != tivwire.CodeUnavailable {
		t.Fatalf("injected fault code = %q, want %q", wire.Code, tivwire.CodeUnavailable)
	}
	if !wire.Retryable() {
		t.Fatal("injected fault is not retryable")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}

	if err := run([]string{"-synth", "8", "-chaos", "bogus"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("malformed -chaos spec should error")
	}
}
