package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"probe/internal/daemon"
)

// TestFlagsGolden: every flag keeps its name and default
// (testdata/flags.golden was recorded before the shared flags moved to
// internal/daemon).
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("probed", flag.ContinueOnError)
	register(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "-%s=%s\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flags drifted from testdata/flags.golden:\n%s", got.String())
	}
}

// primaryConfig serves a fresh durable store that ships its WAL on
// replListen.
func primaryConfig(t *testing.T, admin, replListen string) serveConfig {
	return serveConfig{
		Flags:  daemon.Flags{Addr: "127.0.0.1:0", Admin: admin, MaxInflight: 4, SlowQuery: -1},
		dbPath: filepath.Join(t.TempDir(), "db"), dims: 2, bits: 10, pool: 16,
		replListen: replListen,
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestServeReleasesReplicationWhenAdminCannotBind: a daemon that fails
// to start leaves no listener behind, the WAL-shipping one included.
func TestServeReleasesReplicationWhenAdminCannotBind(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	replAddr := freeAddr(t)
	if err := serve(primaryConfig(t, busy.Addr().String(), replAddr)); err == nil {
		t.Fatal("serve started with its admin port taken")
	}
	ln, err := net.Listen("tcp", replAddr)
	if err != nil {
		t.Fatalf("the replication listener outlived serve: %v", err)
	}
	ln.Close()
}

var addrRE = regexp.MustCompile(`\d+\.\d+\.\d+\.\d+:\d+`)

// TestReadyLineComesFirst: bench/proc.go and the CI scripts take the
// first stdout line naming an address as the query listener's, so the
// ready line precedes the WAL-shipping and admin lines, and SIGTERM
// drains to exit 0.
func TestReadyLineComesFirst(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	cfg := primaryConfig(t, freeAddr(t), "127.0.0.1:0")
	errc := make(chan error, 1)
	go func() {
		errc <- serve(cfg)
		w.Close()
	}()
	var lines []string
	for sc := bufio.NewScanner(r); sc.Scan(); {
		lines = append(lines, sc.Text())
		if strings.Contains(sc.Text(), "admin endpoint on") {
			syscall.Kill(os.Getpid(), syscall.SIGTERM)
		}
	}
	os.Stdout = stdout
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v\n%s", err, strings.Join(lines, "\n"))
	}

	var named []string
	for _, l := range lines {
		if addrRE.MatchString(l) {
			named = append(named, l)
		}
	}
	ready := regexp.MustCompile(`^probed: serving 0 points on 127\.0\.0\.1:\d+ \(max-inflight 4\)$`)
	if len(named) != 3 || !ready.MatchString(named[0]) ||
		!strings.HasPrefix(named[1], "probed: shipping WAL segments on ") ||
		!strings.HasPrefix(named[2], "probed: admin endpoint on ") {
		t.Fatalf("lines naming an address:\n%s", strings.Join(named, "\n"))
	}
	if last := lines[len(lines)-1]; last != "probed: drained, closed" {
		t.Fatalf("last line %q", last)
	}
}
