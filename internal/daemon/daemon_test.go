package daemon

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"probe/internal/session"
)

// TestFlags is the one table of the shared checks and the flag-to-config
// mapping, with every case probed's and zrouted's own tables had: a
// valid configuration maps -slow-query 0 to the firehose (negative), a
// negative flag to off (zero), passes -log-requests through, and builds
// a Logger exactly when some logging is on.
func TestFlags(t *testing.T) {
	type want struct {
		slowQuery time.Duration
		logEvery  int
		logger    bool
	}
	off := want{}
	for _, tc := range []struct {
		name    string
		f       Flags
		wantErr string // substring; empty = valid, mapped to want
		want    want
	}{
		{"defaults", Flags{Addr: ":7331", SlowQuery: -1}, "", off},
		{"admin on its own port", Flags{Addr: ":7331", Admin: ":9090", SlowQuery: -1}, "", off},
		{"admin ok", Flags{Addr: ":7341", Admin: ":9341", SlowQuery: -1}, "", off},
		{"admin clashes wildcard", Flags{Addr: ":7331", Admin: ":7331", SlowQuery: -1}, "clashes", off},
		{"admin clashes same host", Flags{Addr: "127.0.0.1:7331", Admin: "127.0.0.1:7331", SlowQuery: -1}, "clashes", off},
		{"admin clash same host, other address", Flags{Addr: "10.0.0.1:7341", Admin: "10.0.0.1:7341", SlowQuery: -1}, "clashes", off},
		{"admin wildcard vs host, same port", Flags{Addr: "127.0.0.1:7331", Admin: ":7331", SlowQuery: -1}, "clashes", off},
		{"same port distinct hosts", Flags{Addr: "127.0.0.1:7331", Admin: "127.0.0.2:7331", SlowQuery: -1}, "", off},
		{"admin distinct hosts same port", Flags{Addr: "10.0.0.1:7341", Admin: "10.0.0.2:7341", SlowQuery: -1}, "", off},
		{"admin missing port", Flags{Addr: ":7331", Admin: "localhost", SlowQuery: -1}, "bad -admin", off},
		{"admin unparseable", Flags{Addr: ":7341", Admin: "no-port", SlowQuery: -1}, "bad -admin", off},
		{"addr unparseable with admin set", Flags{Addr: "garbage", Admin: ":9090", SlowQuery: -1}, "bad -addr", off},
		{"slow-query implausibly large", Flags{Addr: ":7331", SlowQuery: 25 * time.Hour}, "not a plausible", off},
		{"log-requests negative", Flags{Addr: ":7331", SlowQuery: -1, LogEvery: -1}, "-log-requests", off},
		{"slow-query zero logs everything", Flags{Addr: ":7331", SlowQuery: 0}, "", want{-1, 0, true}},
		{"slow-query threshold", Flags{SlowQuery: 50 * time.Millisecond}, "", want{50 * time.Millisecond, 0, true}},
		{"slow-query threshold, router", Flags{SlowQuery: 250 * time.Millisecond}, "", want{250 * time.Millisecond, 0, true}},
		{"log-requests sampling", Flags{Addr: ":7341", SlowQuery: -1, LogEvery: 100}, "", want{0, 100, true}},
		{"log-requests sampled only", Flags{SlowQuery: -1, LogEvery: 50}, "", want{0, 50, true}},
		{"both", Flags{SlowQuery: time.Second, LogEvery: 10}, "", want{time.Second, 10, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Check()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Check = %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Check: unexpected error %v", err)
			}
			c := tc.f.Session()
			if got := (want{c.SlowQuery, c.LogEvery, c.Logger != nil}); got != tc.want {
				t.Fatalf("Session() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestSessionPassesThrough: the settings without a flag convention
// reach session.Config unchanged, and nothing else is set.
func TestSessionPassesThrough(t *testing.T) {
	c := Flags{MaxInflight: 7, Drain: 3 * time.Second, Batch: 100, SlowQuery: -1, TraceBuffer: 9}.Session()
	want := session.Config{MaxInflight: 7, DrainTimeout: 3 * time.Second, BatchSize: 100, TraceBuffer: 9}
	if c != want {
		t.Fatalf("Session() = %+v, want %+v", c, want)
	}
}

// fakeFront records the order of the drain's calls; its Shutdown
// blocks until release is closed.
type fakeFront struct {
	serving  chan struct{} // closed by Serve
	serveErr chan error    // Serve returns what arrives here
	shutting chan struct{} // closed by Shutdown
	release  chan struct{} // Shutdown returns once closed

	mu    sync.Mutex
	calls []string
}

func newFake() *fakeFront {
	return &fakeFront{
		serving:  make(chan struct{}),
		serveErr: make(chan error, 1),
		shutting: make(chan struct{}),
		release:  make(chan struct{}),
	}
}

func (f *fakeFront) record(call string) {
	f.mu.Lock()
	f.calls = append(f.calls, call)
	f.mu.Unlock()
}

func (f *fakeFront) recorded() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return strings.Join(f.calls, ",")
}

func (f *fakeFront) Serve(ln net.Listener) error {
	close(f.serving)
	select {
	case err := <-f.serveErr:
		return err
	case <-f.shutting:
		return nil
	}
}

func (f *fakeFront) Shutdown(context.Context) error {
	f.record("shutdown")
	close(f.shutting)
	<-f.release
	return nil
}

func (f *fakeFront) AdminHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
}

// lockedBuffer is Run's stdout, read while Run writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// harness is one run under test: a fake front, an injected signal
// channel, and the output.
type harness struct {
	front *fakeFront
	sigs  chan os.Signal
	out   lockedBuffer
	done  chan error
}

func start(t *testing.T, f Flags) *harness {
	t.Helper()
	d := &harness{front: newFake(), sigs: make(chan os.Signal, 2), done: make(chan error, 1)}
	go func() {
		d.done <- run(&d.out, d.sigs, "testd", "serving 3 points", f, d.front,
			func() { d.front.record("stop") }, []string{"shipping nothing on 127.0.0.1:1"})
	}()
	t.Cleanup(func() {
		select {
		case <-d.front.release:
		default:
			close(d.front.release)
		}
	})
	select {
	case <-d.front.serving:
	case err := <-d.done:
		t.Fatalf("Run returned before serving: %v", err)
	}
	return d
}

var adminRE = regexp.MustCompile(`admin endpoint on http://(\S+)/metrics`)

func (d *harness) adminURL(t *testing.T) string {
	m := adminRE.FindStringSubmatch(d.out.String())
	if m == nil {
		t.Fatalf("no admin line in\n%s", d.out.String())
	}
	return "http://" + m[1] + "/readyz"
}

func (d *harness) wait(t *testing.T) error {
	t.Helper()
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// TestReadyLine pins the line bench/proc.go and the CI scripts wait
// for: the first line naming an address is
// "<name>: <mode> on <addr> (max-inflight N)", the notes and the admin
// line after it.
func TestReadyLine(t *testing.T) {
	d := start(t, Flags{Addr: "127.0.0.1:0", Admin: "127.0.0.1:0", MaxInflight: 5})
	lines := strings.Split(d.out.String(), "\n")
	ready := regexp.MustCompile(`^testd: serving 3 points on 127\.0\.0\.1:\d+ \(max-inflight 5\)$`)
	if len(lines) < 3 || !ready.MatchString(lines[0]) ||
		lines[1] != "testd: shipping nothing on 127.0.0.1:1" ||
		!strings.HasPrefix(lines[2], "testd: admin endpoint on http://127.0.0.1:") {
		t.Fatalf("output:\n%s", d.out.String())
	}
	d.sigs <- syscall.SIGTERM
	close(d.front.release)
	if err := d.wait(t); err != nil {
		t.Fatal(err)
	}
}

// TestDrain: the first signal stops the front end's own work, then
// shuts it down; the admin endpoint answers all through the drain and
// is closed once Run returns.
func TestDrain(t *testing.T) {
	d := start(t, Flags{Addr: "127.0.0.1:0", Admin: "127.0.0.1:0", MaxInflight: 1})
	url := d.adminURL(t)
	d.sigs <- syscall.SIGTERM
	<-d.front.shutting
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("admin endpoint gone while Shutdown blocks: %v", err)
	}
	resp.Body.Close()
	close(d.front.release)
	if err := d.wait(t); err != nil {
		t.Fatal(err)
	}
	if got := d.front.recorded(); got != "stop,shutdown" {
		t.Fatalf("drain calls %q, want stop then shutdown", got)
	}
	if !strings.Contains(d.out.String(), "testd: drained, closed") {
		t.Fatalf("output:\n%s", d.out.String())
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("admin endpoint outlived Run")
	}
}

// TestSecondSignalExitsHard: a signal during a Shutdown that does not
// return ends Run at once.
func TestSecondSignalExitsHard(t *testing.T) {
	d := start(t, Flags{Addr: "127.0.0.1:0", MaxInflight: 1})
	d.sigs <- syscall.SIGTERM
	<-d.front.shutting
	d.sigs <- syscall.SIGINT
	if err := d.wait(t); err == nil || !strings.Contains(err.Error(), "exiting hard") {
		t.Fatalf("Run = %v, want the exiting-hard error", err)
	}
}

// TestServeErrorDrains: a failing Serve takes the same way out as a
// signal, and Run returns Serve's error.
func TestServeErrorDrains(t *testing.T) {
	d := start(t, Flags{Addr: "127.0.0.1:0", MaxInflight: 1})
	boom := errors.New("accept: boom")
	d.front.serveErr <- boom
	close(d.front.release)
	if err := d.wait(t); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	if got := d.front.recorded(); got != "stop,shutdown" {
		t.Fatalf("calls %q, want stop then shutdown", got)
	}
}

// TestAdminBindFailureDrains: a daemon whose admin port is taken stops
// and shuts down its front end and releases the query listener.
func TestAdminBindFailureDrains(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := free.Addr().String()
	free.Close()

	front := newFake()
	close(front.release)
	var out lockedBuffer
	err = run(&out, nil, "testd", "serving", Flags{Addr: addr, Admin: busy.Addr().String()}, front,
		func() { front.record("stop") }, nil)
	if err == nil {
		t.Fatal("Run started with its admin port taken")
	}
	if got := front.recorded(); got != "stop,shutdown" {
		t.Fatalf("calls %q, want stop then shutdown", got)
	}
	if out.String() != "" {
		t.Fatalf("a daemon that did not start printed %q", out.String())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("query listener outlived Run: %v", err)
	}
	ln.Close()
}
