package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildMeshserve compiles ./cmd/meshserve — that package only, never
// ./... (cmd/meshsim does not build at HEAD) — into the scratch
// directory and returns the binary's path. An up-to-date binary makes
// this a fraction of a second; it is not part of setup_s.
func buildMeshserve(cfg config) (string, error) {
	bin := filepath.Join(cfg.scratch, "bin", "meshserve")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/meshserve")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/meshserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running meshserve child with its private cache
// directory and captured stderr.
type server struct {
	cmd     *exec.Cmd
	url     string
	dir     string // temp dir holding cache/ and stderr.log
	logPath string
	exited  chan struct{} // closed once Wait returned
	stop1   sync.Once     // stop may race between normal exit and a signal
}

var listeningRE = regexp.MustCompile(`msg=listening url=(http://\S+)`)

// startServer launches meshserve on a kernel-assigned port over a
// fresh cache directory, parses the bound URL from its startup banner
// and waits for /readyz. The caller must stop() it; cleanup also does,
// so a signal or fatal error cannot leak the process.
func startServer(cfg config, bin string, args ...string) (*server, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "serve-*")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, logPath: filepath.Join(dir, "stderr.log"), exited: make(chan struct{})}
	logf, err := os.Create(s.logPath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// stderr goes to a file, not a pipe: the access log is one line per
	// request and must not depend on this process draining it in time.
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-cache", filepath.Join(dir, "cache")}, args...)...)
	s.cmd.Stderr = logf
	err = s.cmd.Start()
	logf.Close()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { _ = s.cmd.Wait(); close(s.exited) }()
	cleanup.add(s.stop)

	deadline := time.Now().Add(15 * time.Second)
	for s.url == "" {
		if err := s.alive(); err != nil {
			s.stop()
			return nil, err
		}
		if time.Now().After(deadline) {
			tail := s.stderrTail()
			s.stop()
			return nil, fmt.Errorf("meshserve printed no listening banner within 15 s; stderr:\n%s", tail)
		}
		if data, err := os.ReadFile(s.logPath); err == nil {
			if m := listeningRE.FindSubmatch(data); m != nil {
				s.url = string(m[1])
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if aerr := s.alive(); aerr != nil {
			s.stop()
			return nil, aerr
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("meshserve at %s not ready within 15 s (last error: %v)", s.url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// alive returns an error carrying the stderr tail if the server died.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("meshserve exited mid-run (%v); stderr tail:\n%s", s.cmd.ProcessState, s.stderrTail())
	default:
		return nil
	}
}

// stderrTail returns the last lines of the server's log that are not
// routine access-log records.
func (s *server) stderrTail() string {
	f, err := os.Open(s.logPath)
	if err != nil {
		return "(no stderr captured: " + err.Error() + ")"
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() > 64<<10 {
		_, _ = f.Seek(-64<<10, io.SeekEnd)
	}
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.Contains(line, "msg=http ") {
			lines = append(lines, line)
		}
	}
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// stop terminates the server (SIGTERM, then SIGKILL after 5 s), waits
// for it to exit, and removes its temp directory. Idempotent.
func (s *server) stop() {
	s.stop1.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
		os.RemoveAll(s.dir)
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// scrape is one reading of the server's /metrics: series name (with
// its label set, as printed) -> value.
type scrape map[string]float64

func (s *server) scrape() (scrape, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// window is the change in the server's counters across a timed window.
type window struct{ before, after scrape }

func (w window) delta(series string) float64 {
	return w.after["wormmesh_serve_"+series] - w.before["wormmesh_serve_"+series]
}

// histMean returns the mean observation, in seconds, a histogram
// received during the window (0 when it received none).
func (w window) histMean(name, labels string) float64 {
	series := ""
	if labels != "" {
		series = "{" + labels + "}"
	}
	n := w.delta(name + "_count" + series)
	if n <= 0 {
		return 0
	}
	return w.delta(name+"_sum"+series) / n
}
