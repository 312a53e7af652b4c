package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rlckit/internal/serve"
)

// daemon is one running rlckitd process, started with its default flags
// on a loopback port the kernel picks.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// pool holds the keep-alive connections, at most as many as the
	// daemon was started for; a nil slot is dialled on first use.
	pool   chan *conn
	exited chan struct{} // closed when the process has been reaped
	// stderrDone is closed when the stderr drain has ended.
	stderrDone chan struct{}
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon execs bin and returns once /healthz answers. conns bounds
// the client's connections to the daemon.
func startDaemon(bin string, conns int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The daemon dies with the benchmark, even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rlckitd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), stderrDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.stderrDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := listeningRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrCh <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	go func() {
		<-d.stderrDone
		_ = cmd.Wait()
		close(d.exited)
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			d.stop()
			return nil, errors.New("rlckitd exited before listening")
		}
		addr = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("rlckitd did not report a listen address within 30s")
	}
	d.addr = addr
	d.pool = make(chan *conn, conns)
	for range conns {
		d.pool <- nil
	}
	status, _, err := d.do("GET", "/healthz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("healthz answered %d", status)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop terminates the daemon gracefully (SIGTERM, then SIGKILL after
// 10s) and waits until it has been reaped.
func (d *daemon) stop() {
	for d.pool != nil && len(d.pool) > 0 {
		if c := <-d.pool; c != nil {
			c.nc.Close()
		}
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// conn is one keep-alive HTTP/1.1 connection to the daemon. A request
// is written in one call and its reply read on the calling goroutine,
// so the load generator adds no goroutine hand-offs of its own to a
// round trip, and little CPU next to the daemon's.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	req []byte
}

// do sends one request on a pooled connection, waiting for a free one
// if all are busy, and returns status and body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	c := <-d.pool
	if c == nil {
		nc, err := net.Dial("tcp", d.addr)
		if err != nil {
			d.pool <- nil
			return 0, nil, err
		}
		c = &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	}
	status, b, keep, err := c.roundTrip(d.addr, method, path, body)
	if err != nil || !keep {
		c.nc.Close()
		c = nil
	}
	d.pool <- c
	return status, b, err
}

// roundTrip writes one request and reads its response; keep reports
// whether the connection can carry another request.
func (c *conn) roundTrip(host, method, path string, body []byte) (status int, b []byte, keep bool, err error) {
	r := append(c.req[:0], method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, host...)
	if body != nil {
		r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
	}
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.nc.Write(r); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	if resp.ContentLength >= 0 {
		b = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, b)
	} else {
		b, err = io.ReadAll(resp.Body)
	}
	return resp.StatusCode, b, !resp.Close, err
}

// stats reads the daemon's serving counters from /debug/vars.
func (d *daemon) stats() (serve.Stats, error) {
	var v struct {
		Rlckitd serve.Stats `json:"rlckitd"`
	}
	status, body, err := d.do("GET", "/debug/vars", nil)
	if err != nil {
		return v.Rlckitd, err
	}
	if status != http.StatusOK {
		return v.Rlckitd, fmt.Errorf("/debug/vars answered %d", status)
	}
	err = json.Unmarshal(body, &v)
	return v.Rlckitd, err
}

// peakRSSMB is the daemon's VmHWM so far.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// statsDelta is the difference of two counter snapshots, as the
// per-layer serve metrics use it.
type statsDelta struct {
	Hits, Misses, Rejected, Degraded float64
	Batches, Batched                 float64
	MORHits, MORFallbacks            float64
	PencilHits, PencilBuilds         float64
}

func delta(a, b serve.Stats) statsDelta {
	f := func(x, y uint64) float64 { return float64(y) - float64(x) }
	return statsDelta{
		Hits: f(a.Cache.Hits, b.Cache.Hits), Misses: f(a.Cache.Misses, b.Cache.Misses),
		Rejected: f(a.Rejected, b.Rejected), Degraded: f(a.Degraded, b.Degraded),
		Batches: f(a.Batches, b.Batches), Batched: f(a.Batched, b.Batched),
		MORHits: f(a.MORHits, b.MORHits), MORFallbacks: f(a.MORFallbacks, b.MORFallbacks),
		PencilHits: f(a.PencilHits, b.PencilHits), PencilBuilds: f(a.PencilBuilds, b.PencilBuilds),
	}
}

func (s statsDelta) hitRatio() float64 { return ratio(s.Hits, s.Hits+s.Misses) }

// layerMetrics are the per-layer serve metrics read from counters.
func (s statsDelta) layerMetrics(m map[string]metric) {
	m["cache.hit_ratio"] = metric{s.hitRatio(), "ratio"}
	m["serve.batch_size_mean"] = metric{ratio(s.Batched, s.Batches), "count"}
	m["serve.rejected"] = metric{s.Rejected, "count"}
	m["serve.degraded"] = metric{s.Degraded, "count"}
	m["serve.mor_fallback_ratio"] = metric{ratio(s.MORFallbacks, s.MORHits+s.MORFallbacks), "ratio"}
	m["serve.pencil_hit_ratio"] = metric{ratio(s.PencilHits, s.PencilHits+s.PencilBuilds), "ratio"}
}

// sessionIDOf extracts session_id from a session open response.
func sessionIDOf(body []byte) string {
	var v struct {
		SessionID string `json:"session_id"`
	}
	if json.Unmarshal(body, &v) != nil {
		return ""
	}
	return v.SessionID
}

// fillID substitutes a session ID into a step path.
func fillID(path, id string) string { return strings.Replace(path, sessionIDSlot, id, 1) }

// sameBody compares a response to its reference. Session responses
// carry the server's own session ID, a process-local counter, so the
// comparison first maps the daemon's ID onto the reference's.
func sameBody(got, want []byte, gotID, wantID string) bool {
	if gotID != "" && gotID != wantID {
		got = bytes.Replace(got, []byte(`"session_id":"`+gotID+`"`), []byte(`"session_id":"`+wantID+`"`), 1)
	}
	return bytes.Equal(got, want)
}
