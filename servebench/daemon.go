package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running tivd process.
type daemon struct {
	cmd       *exec.Cmd
	pid       string
	httpURL   string // "http://127.0.0.1:port"
	frameAddr string // "tcp://127.0.0.1:port", or "" without -frame-listen
	exited    chan struct{}
	waitErr   error
}

// startDaemon launches tivd with args and waits until it has printed
// the listen addresses it was asked for (its banners go to stdout).
func startDaemon(ctx context.Context, bin string, args []string, wantFrames bool) (*daemon, error) {
	// The banner pipe is ours rather than cmd.StdoutPipe, so Wait never
	// closes it under the reader: the reader sees EOF when tivd exits.
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("starting tivd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), exited: make(chan struct{})}
	lines := make(chan string)
	bannersRead := make(chan struct{})
	defer close(bannersRead)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-bannersRead:
			}
		}
		_, _ = io.Copy(io.Discard, pr) // a line longer than the scanner buffer: keep draining
		close(lines)
	}()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for d.httpURL == "" || (wantFrames && d.frameAddr == "") {
		select {
		case line, ok := <-lines:
			if !ok {
				d.stop()
				return nil, fmt.Errorf("tivd %v exited before serving: %v", args, d.waitErr)
			}
			if i := strings.Index(line, " on http://"); i >= 0 && strings.HasPrefix(line, "tivd: ") {
				d.httpURL = line[i+len(" on "):]
			}
			if a, ok := strings.CutPrefix(line, "tivd: frames on "); ok {
				d.frameAddr = a
			}
		case <-ctx.Done():
			d.stop()
			return nil, fmt.Errorf("tivd %v: no listen banner: %w", args, ctx.Err())
		}
	}
	return d, nil
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within five seconds, and waits for it.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled below
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
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

// cluster is the set of daemons one workload runs; front is the one
// the generator talks to.
type cluster struct {
	all   []*daemon
	front *daemon
}

func (c *cluster) pids() []string {
	out := make([]string, len(c.all))
	for i, d := range c.all {
		out[i] = d.pid
	}
	return out
}

func (c *cluster) stop() {
	for i := len(c.all) - 1; i >= 0; i-- {
		c.all[i].stop()
	}
}

func (c *cluster) alive() bool {
	for _, d := range c.all {
		if !d.alive() {
			return false
		}
	}
	return true
}

// startCluster launches the workload's daemons: one monolith, or
// w.shards shard daemons behind one gateway. Shards start together;
// the gateway starts once they all serve, since it probes them.
func startCluster(ctx context.Context, bin, matrixPath string, w *workload) (*cluster, error) {
	base := []string{"-in", matrixPath, "-format", "binary", "-listen", "127.0.0.1:0"}
	if w.shards == 0 {
		args := append(base, w.frontArgs()...)
		if w.frames {
			args = append(args, "-frame-listen", "127.0.0.1:0")
		}
		d, err := startDaemon(ctx, bin, args, w.frames)
		if err != nil {
			return nil, err
		}
		return &cluster{all: []*daemon{d}, front: d}, nil
	}
	c := &cluster{}
	type started struct {
		d   *daemon
		err error
	}
	ch := make(chan started, w.shards) // one send per shard
	for s := 0; s < w.shards; s++ {
		go func() {
			d, err := startDaemon(ctx, bin, append(append([]string(nil), base...), "-frame-listen", "127.0.0.1:0"), true)
			ch <- started{d, err}
		}()
	}
	var firstErr error
	for s := 0; s < w.shards; s++ {
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		c.all = append(c.all, r.d)
	}
	if firstErr != nil {
		c.stop()
		return nil, firstErr
	}
	urls := make([]string, len(c.all))
	frames := make([]string, len(c.all))
	for i, d := range c.all {
		urls[i], frames[i] = d.httpURL, d.frameAddr
	}
	args := []string{"-listen", "127.0.0.1:0", "-shards", strings.Join(urls, ","), "-shard-frames", strings.Join(frames, ",")}
	args = append(args, w.frontArgs()...)
	if w.frames {
		args = append(args, "-frame-listen", "127.0.0.1:0")
	}
	gw, err := startDaemon(ctx, bin, args, w.frames)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.all = append(c.all, gw)
	c.front = gw
	return c, nil
}
