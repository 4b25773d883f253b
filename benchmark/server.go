package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one wdserve process under test. It only ever receives the
// generated files (on its command line) and HTTP requests.
type child struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	eof    chan struct{} // closed when the process has closed its stderr
	stderr strings.Builder
}

var servingLine = regexp.MustCompile(`on (http://[0-9.:]+)/sparql`)

// startServer starts wdserve with default flags plus args and returns
// once it listens. The address is the one the process reports, so
// concurrent runs in other checkouts cannot collide on a port.
func startServer(bin string, args ...string) (*child, error) {
	c := &child{eof: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(bin, "wdserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wdserve: %w", err)
	}
	ready := make(chan string, 1)
	go func() {
		defer close(c.eof)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			c.stderr.WriteString(line + "\n")
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case c.base = <-ready:
		return c, nil
	case <-c.eof:
		err := c.cmd.Wait()
		return nil, fmt.Errorf("wdserve exited before serving (%v):\n%s", err, c.stderr.String())
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, errors.New("wdserve did not start serving within 60s")
	}
}

// stop drains the server and waits until the process has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGINT)
	exited := make(chan struct{})
	go func() {
		<-c.eof // stderr reaches EOF when the process ends; Wait must follow the last read
		_ = c.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-exited
	}
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// serverStats is the part of wdserve's /stats document the benchmark reads.
type serverStats struct {
	Triples     int    `json:"triples"`
	Queries     uint64 `json:"queries"`
	Shed        uint64 `json:"shed"`
	Rejected    uint64 `json:"rejected"`
	Panics      uint64 `json:"panics"`
	Timeouts    uint64 `json:"timeouts"`
	WriteStalls uint64 `json:"write_stalls"`
	QueryCache  struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"query_cache"`
	Ingest struct {
		Batches          uint64 `json:"batches"`
		TriplesApplied   uint64 `json:"triples_applied"`
		Refreezes        uint64 `json:"refreezes"`
		RefreezeFailures uint64 `json:"refreeze_failures"`
	} `json:"ingest"`
}

func (c *child) stats(hc *http.Client) (serverStats, error) {
	var st serverStats
	resp, err := hc.Get(c.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// buildSnapshot seals an N-Triples file into a snapshot image with the
// repository's own wdsnap tool.
func buildSnapshot(bin, nt, out string) error {
	cmd := exec.Command(filepath.Join(bin, "wdsnap"), "build", "-data", nt, "-o", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("wdsnap build: %w\n%s", err, msg)
	}
	return nil
}
