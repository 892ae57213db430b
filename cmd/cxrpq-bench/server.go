package main

// The server under test as a child process: build, start on a free port,
// wait for /healthz, read /stats and /proc, kill.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// buildServer compiles cmd/cxrpq-serve of the checkout the benchmark runs
// in. The build is not part of setup_s.
func buildServer(outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "cxrpq-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cxrpq-serve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cxrpq-serve: %w", err)
	}
	return bin, nil
}

// runningServer is the child process of the moment, for the signal handler,
// which only ever sends it SIGKILL.
var runningServer atomic.Pointer[os.Process]

type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	hc   *http.Client
}

// startServer launches bin with args on a free loopback port and returns
// once /healthz answers.
func startServer(bin string, args []string, logPath string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, hc: &http.Client{Timeout: 5 * time.Second}}
	runningServer.Store(cmd.Process)
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := s.hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server did not become healthy (see %s): %v", logPath, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to end. cxrpq-serve has no
// graceful shutdown; durability is exactly what survives this.
func (s *server) kill() {
	if s == nil || s.cmd == nil {
		return
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
	s.hc.CloseIdleConnections()
	s.cmd = nil
}

type statsDB struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Revision uint64 `json:"revision"`
	Sessions int    `json:"sessions"`
	Maint    struct {
		IndexExtended     float64 `json:"index_extended"`
		IndexRebuilds     float64 `json:"index_rebuilds"`
		PartitionRebuilds float64 `json:"partition_rebuilds"`
	} `json:"maint"`
	SessMaint struct {
		DeltaApplies float64 `json:"delta_applies"`
		FullRebuilds float64 `json:"full_rebuilds"`
		RelRetained  float64 `json:"rel_retained"`
		RelExtended  float64 `json:"rel_extended"`
	} `json:"sessions_maint"`
	Store *struct {
		WALBytes    float64 `json:"wal_bytes"`
		Fsyncs      float64 `json:"wal_fsyncs"`
		Checkpoints float64 `json:"checkpoints"`
	} `json:"store"`
	Shed      float64 `json:"shed"`
	Truncated float64 `json:"truncated"`
}

type statsDoc struct {
	DBs        []statsDB `json:"dbs"`
	MatchCache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"match_cache"`
	Cursors float64 `json:"cursors"`
	Engine  struct {
		Batches   float64 `json:"batches"`
		Levels    float64 `json:"levels"`
		Sources   float64 `json:"sources"`
		Edges     float64 `json:"edges"`
		Exchanged float64 `json:"exchanged"`
	} `json:"engine"`
	Planner struct {
		AtomsMinimized float64 `json:"atoms_minimized"`
		AcyclicPlans   float64 `json:"acyclic_plans"`
		SemijoinPasses float64 `json:"semijoin_passes"`
		CyclicFallback float64 `json:"cyclic_fallbacks"`
	} `json:"planner"`
}

func (s *server) stats() (*statsDoc, error) {
	resp, err := s.hc.Get(s.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var d statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &d, nil
}

func (d *statsDoc) db(name string) *statsDB {
	for i := range d.DBs {
		if d.DBs[i].Name == name {
			return &d.DBs[i]
		}
	}
	return nil
}

// cpuMS is the server's user+system CPU time so far, from /proc/<pid>/stat
// (fields 14 and 15, in clock ticks of 10 ms).
func (s *server) cpuMS() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}

// rssPeakMB is the server's peak resident set (VmHWM).
func (s *server) rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
