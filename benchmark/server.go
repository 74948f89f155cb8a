package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wise/internal/obs"
)

// serverTimeout bounds each wait on the child: for its listen line, for
// /readyz, and for its drain after SIGTERM.
const serverTimeout = 30 * time.Second

// buildServer compiles cmd/wise-serve of the repository at root into dir.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("benchmark: creating build dir: %w", err)
	}
	bin := filepath.Join(dir, "wise-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/wise-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: building wise-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one wise-serve child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer  // read only after exited is closed
	exited chan struct{} // closed once Wait has reaped the process
	err    error         // Wait's result; read after exited is closed
}

// serverEnv is the benchmark's environment without the fault-injection
// variables, so a shell that armed faults cannot skew a run.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "WISE_FAULTS=") && !strings.HasPrefix(kv, "WISE_FAULT_SEED=") {
			env = append(env, kv)
		}
	}
	return env
}

// startServer starts wise-serve on a free loopback port with the model
// fixture and waits for its listen line. The child gets SIGKILL if the
// benchmark dies first.
func startServer(ctx context.Context, bin, root, model string, flags []string) (*server, error) {
	args := append([]string{"-models", model, "-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = root
	cmd.Env = serverEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	cmd.Stderr = &s.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("benchmark: wise-serve stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("benchmark: starting wise-serve: %w", err)
	}
	listen := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			listen <- sc.Text()
		}
		_, _ = io.Copy(io.Discard, stdout) // Wait needs the pipe drained; a read error ends at exit anyway
		s.err = cmd.Wait()
		close(s.exited)
	}()
	timer := time.NewTimer(serverTimeout)
	defer timer.Stop()
	select {
	case line := <-listen:
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "http://") {
				s.url = f
			}
		}
		if s.url == "" {
			s.kill()
			return nil, fmt.Errorf("benchmark: wise-serve listen line has no URL: %q", line)
		}
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("benchmark: wise-serve exited before listening (%v): %s", s.err, s.stderr.String())
	case <-timer.C:
		s.kill()
		return nil, fmt.Errorf("benchmark: wise-serve did not listen within %v", serverTimeout)
	}
}

// kill stops the process without a drain and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process has already exited
	<-s.exited
}

// stop sends SIGTERM and waits for the drain. It returns the exit code,
// which is 130 after a clean drain.
func (s *server) stop() (int, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return -1, fmt.Errorf("benchmark: signalling wise-serve: %w", err)
	}
	timer := time.NewTimer(serverTimeout)
	defer timer.Stop()
	select {
	case <-s.exited:
		return s.cmd.ProcessState.ExitCode(), nil
	case <-timer.C:
		s.kill()
		return -1, fmt.Errorf("benchmark: wise-serve did not drain within %v", serverTimeout)
	}
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, t *httpTarget) error {
	deadline := time.Now().Add(serverTimeout)
	for {
		_, status, err := t.get(ctx, "/readyz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("benchmark: wise-serve not ready (status %d, %v)", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricz fetches the server's obs snapshot.
func metricz(ctx context.Context, t *httpTarget) (*obs.Snapshot, error) {
	data, status, err := t.get(ctx, "/metricz")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("benchmark: /metricz status %d", status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("benchmark: decoding /metricz: %w", err)
	}
	return &snap, nil
}

// memMiB reads one memory field of the process, such as VmRSS (resident
// now) or VmHWM (peak resident), from /proc.
func (s *server) memMiB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("benchmark: reading wise-serve memory: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("benchmark: parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("benchmark: no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// sampleRSS reads the process's VmRSS every interval until stop is closed.
func (s *server) sampleRSS(stop <-chan struct{}, interval time.Duration) []float64 {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var out []float64
	for {
		if v, err := s.memMiB("VmRSS"); err == nil {
			out = append(out, v)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}
