package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// buildServer compiles gph-server from the checkout's source into the
// work dir.
func buildServer(ctx context.Context, cfg config) (string, error) {
	bin := filepath.Join(cfg.workdir, "gph-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gph-server")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gph-server: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one gph-server child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{} // closed once the child has been waited for
}

// startServer execs the server and waits for its first 200 from
// /healthz; the returned duration is exec → that answer. The child is
// killed when ctx is cancelled and when the runner itself dies.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, time.Duration, error) {
	// A free port: bind :0, note the port, release it for the child.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logFile, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			s.kill()
			return nil, 0, fmt.Errorf("gph-server exited during start-up (see %s)", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("gph-server did not answer /healthz within 60 s (see %s)", logPath)
		}
	}
}

// kill is kill -9 and wait: the server never gets to checkpoint, so
// the snapshot and WAL on disk stay exactly what the run prepared.
func (s *server) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// client is the single closed-loop client: one keep-alive connection,
// one request in flight, a reused read buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response; the returned
// body is valid until the next call. latency covers send → last byte.
func (c *client) do(method, path string, body []byte) (status int, resp []byte, latency time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(r.Body)
	latency = time.Since(start)
	r.Body.Close()
	return r.StatusCode, c.buf.Bytes(), latency, err
}

// getJSON fetches path and decodes a 200 answer into out.
func (c *client) getJSON(path string, out any) error {
	status, body, _, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, out)
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Vectors   int   `json:"vectors"`
	SizeBytes int64 `json:"size_bytes"`
	Shards    []struct {
		Indexed    int `json:"indexed"`
		Delta      int `json:"delta"`
		Tombstones int `json:"tombstones"`
	} `json:"shards"`
	Compaction struct {
		Running   bool   `json:"running"`
		Runs      int64  `json:"runs"`
		LastError string `json:"last_error"`
	} `json:"compaction"`
	WALBytes int64 `json:"wal_bytes"`
	Planner  struct {
		RoutedIndex     int64   `json:"routed_index"`
		RoutedScan      int64   `json:"routed_scan"`
		ScanNanosPerRow float64 `json:"scan_nanos_per_row"`
		EstimateNanos   float64 `json:"estimate_nanos"`
		Cache           struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	} `json:"planner"`
}

func (st serverStats) pending() (delta, tombstones int) {
	for _, sh := range st.Shards {
		delta += sh.Delta
		tombstones += sh.Tombstones
	}
	return delta, tombstones
}

// searchAnswer is the body of a /search answer.
type searchAnswer struct {
	Results []int32 `json:"results"`
	Micros  int64   `json:"micros"`
}
