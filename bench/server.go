package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"time"
)

// buildServed compiles cmd/served from the checkout at root into dir. The
// compile is not part of setup_s: it measures the Go build cache, not the
// system.
func buildServed(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "served")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/served")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/served: %w\n%s", err, out)
	}
	return bin, nil
}

// A server is one running served subprocess.
type server struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	base   string // http://127.0.0.1:port
	logged chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer runs bin with args on a kernel-chosen loopback port, reads
// the bound address from the server's log line and waits for the first 200
// on /healthz. On any error the process is already stopped and reaped.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	ctx, cancel := context.WithCancel(ctx)
	s := &server{cancel: cancel, logged: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	dieWithParent(s.cmd)
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		cancel()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			s.mu.Lock()
			s.stderr.Write(sc.Bytes())
			s.stderr.WriteByte('\n')
			s.mu.Unlock()
			if m := listenRE.FindSubmatch(sc.Bytes()); m != nil {
				select {
				case addr <- string(m[1]):
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logged:
		s.stop()
		return nil, fmt.Errorf("served exited before listening; stderr:\n%s", s.log())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("served did not report its address within 60s; stderr:\n%s", s.log())
	}
	if err := s.waitHealthy(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w; stderr:\n%s", err, s.log())
	}
	return s, nil
}

func (s *server) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("served never answered 200 on /healthz (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the subprocess and waits until it has been reaped and its
// stderr drained. Safe to call more than once.
func (s *server) stop() {
	s.cancel()
	<-s.logged
	_ = s.cmd.Wait() // "signal: killed" is the expected outcome
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

// peakRSSMB is the subprocess's peak resident set (VmHWM) in MiB, 0 where
// /proc does not provide it.
func (s *server) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
