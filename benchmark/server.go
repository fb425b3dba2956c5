package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env locates everything a run touches. All of it sits inside the
// checkout: the build products and per-run server directories under
// .bench_build/, the logs, traces and result files under benchmark/out/.
type env struct {
	root      string // checkout root (holds cmd/wfserver and benchmark/)
	buildDir  string // root/.bench_build
	outDir    string // root/benchmark/out
	serverBin string
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "wfserver", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/wfserver above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// newEnv resolves the directories and builds cmd/wfserver from source.
// The go build cache is kept inside the checkout too (run.sh sets the
// same GOCACHE for the benchmark's own build).
func newEnv() (*env, time.Duration, error) {
	root, err := findRoot()
	if err != nil {
		return nil, 0, err
	}
	e := &env{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		outDir:   filepath.Join(root, "benchmark", "out"),
	}
	e.serverBin = filepath.Join(e.buildDir, "bin", "wfserver")
	for _, d := range []string{filepath.Join(e.buildDir, "bin"), filepath.Join(e.buildDir, "gocache"), filepath.Join(e.buildDir, "tmp"), e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.serverBin, "./cmd/wfserver")
	cmd.Dir = root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(e.buildDir, "gocache"),
		"GOTMPDIR="+filepath.Join(e.buildDir, "tmp"),
		"GOMODCACHE="+filepath.Join(e.buildDir, "gomod"), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("go build ./cmd/wfserver: %v\n%s", err, out)
	}
	return e, time.Since(start), nil
}

// children tracks every live server process so an interrupt or a panic
// can kill them all before the benchmark exits.
var children struct {
	sync.Mutex
	m map[*server]struct{}
}

func killAllChildren() {
	children.Lock()
	var live []*server
	for s := range children.m {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// server is one wfserver process on its own data and checkpoint dirs.
type server struct {
	env    *env
	dir    string // holds data/ and ckpt/; removed by stop
	base   string // http://127.0.0.1:port
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
	stderr *os.File
	args   []string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots the real binary on fresh directories and waits for
// /healthz. label names the stderr capture in the output directory. A
// boot that fails (the free port can be taken between the probe and the
// server's bind) is retried on a new port.
func (e *env) startServer(label string) (*server, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *server
		if s, err = e.startServerOnce(label); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func (e *env) startServerOnce(label string) (*server, error) {
	dir, err := os.MkdirTemp(e.buildDir, "run-"+label+"-")
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{env: e, dir: dir, base: "http://" + addr}
	s.args = append([]string{
		"-addr", addr,
		"-data-dir", filepath.Join(dir, "data"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
	}, serverFlags...)
	s.stderr, err = os.Create(filepath.Join(e.outDir, "server-"+label+".log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := s.launch(); err != nil {
		s.stderr.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

// launch starts the process on the server's directories (fresh or not)
// and returns once /healthz answers 200.
func (s *server) launch() error {
	s.cmd = exec.Command(s.env.serverBin, s.args...)
	s.cmd.Stderr = s.stderr
	if err := startPinned(s.cmd.Start); err != nil {
		return err
	}
	exited := make(chan struct{})
	s.exited = exited
	go func(cmd *exec.Cmd) {
		cmd.Wait() //nolint:errcheck // killed: the exit status is the signal
		close(exited)
	}(s.cmd)
	children.Lock()
	if children.m == nil {
		children.m = map[*server]struct{}{}
	}
	children.m[s] = struct{}{}
	children.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if healthy(http.DefaultClient, s.base) == nil {
			return nil
		}
		select {
		case <-s.exited:
			deadline = time.Now() // died at boot: stop polling
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.kill()
	return fmt.Errorf("wfserver did not answer /healthz within 60s (see %s)", s.stderr.Name())
}

// healthy reports whether /healthz answers 200.
func healthy(c *http.Client, base string) error {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // health probe body is irrelevant
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// kill sends SIGKILL and reaps the process, leaving its directories.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // a process that already exited is fine
	<-s.exited
	children.Lock()
	delete(children.m, s)
	children.Unlock()
}

// stop kills the server and removes its directories.
func (s *server) stop() {
	s.kill()
	s.stderr.Close()
	os.RemoveAll(s.dir)
}

// rssMB reads the process's current and peak resident set size. The
// peak is the end-to-end metric: the current value depends on where the
// server's garbage collector happens to be when it is read.
func (s *server) rssMB() (cur, peak float64) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmRSS:":
			cur = kb / 1024
		case "VmHWM:":
			peak = kb / 1024
		}
	}
	return cur, peak
}

// cpuSeconds reads the CPU time the process's threads have used, from
// the scheduler's per-thread nanosecond counters (the utime/stime ticks
// of /proc/<pid>/stat are 10 ms wide, too coarse for a 10-second phase).
func (s *server) cpuSeconds() float64 {
	tasks, _ := filepath.Glob("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/task/*/schedstat")
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			n, _ := strconv.ParseFloat(f[0], 64)
			ns += n
		}
	}
	return ns / 1e9
}

// diskBytes sums the regular files under the data and checkpoint dirs.
func (s *server) diskBytes() int64 {
	var total int64
	filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // best-effort walk
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// overview is the part of /api/overview the oracle compares (the
// generation is excluded: recovery may legitimately advance it).
type overview struct {
	Documents int `json:"documents"`
	Subjects  int `json:"subjects"`
	Facts     int `json:"facts"`
	Positive  int `json:"positive"`
	Negative  int `json:"negative"`
}

type subjectRow struct {
	Subject  string `json:"subject"`
	Positive int    `json:"positive"`
	Negative int    `json:"negative"`
}

// answers is what the server says about its corpus: the oracle compares
// it with the reference mine, the restart probe with the pre-kill copy.
type answers struct {
	Overview overview
	Subjects []subjectRow
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

func (s *server) answers() (answers, error) {
	var a answers
	if err := getJSON(http.DefaultClient, s.base+"/api/overview", &a.Overview); err != nil {
		return a, err
	}
	err := getJSON(http.DefaultClient, s.base+"/api/subjects", &a.Subjects)
	return a, err
}

// serverMetrics is the /metrics.json snapshot (counters and histogram
// sums are all the benchmark reads).
type serverMetrics struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"histograms"`
}

func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	err := getJSON(http.DefaultClient, s.base+"/metrics.json", &m)
	return m, err
}
