package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probe"
	"probe/internal/daemon"
	"probe/internal/disk"
)

func TestValidateServeConfig(t *testing.T) {
	cases := []struct {
		name   string
		cfg    serveConfig
		wantOK bool
	}{
		{"defaults", serveConfig{Flags: daemon.Flags{Addr: ":7331", SlowQuery: -1}}, true},
		{"admin on its own port", serveConfig{Flags: daemon.Flags{Addr: ":7331", Admin: ":9090", SlowQuery: -1}}, true},
		{"admin clashes wildcard", serveConfig{Flags: daemon.Flags{Addr: ":7331", Admin: ":7331", SlowQuery: -1}}, false},
		{"admin clashes same host", serveConfig{Flags: daemon.Flags{Addr: "127.0.0.1:7331", Admin: "127.0.0.1:7331", SlowQuery: -1}}, false},
		{"admin wildcard vs host, same port", serveConfig{Flags: daemon.Flags{Addr: "127.0.0.1:7331", Admin: ":7331", SlowQuery: -1}}, false},
		{"same port distinct hosts", serveConfig{Flags: daemon.Flags{Addr: "127.0.0.1:7331", Admin: "127.0.0.2:7331", SlowQuery: -1}}, true},
		{"admin missing port", serveConfig{Flags: daemon.Flags{Addr: ":7331", Admin: "localhost", SlowQuery: -1}}, false},
		{"addr unparseable with admin set", serveConfig{Flags: daemon.Flags{Addr: "garbage", Admin: ":9090", SlowQuery: -1}}, false},
		{"slow-query zero means log everything", serveConfig{Flags: daemon.Flags{Addr: ":7331", SlowQuery: 0}}, true},
		{"slow-query implausibly large", serveConfig{Flags: daemon.Flags{Addr: ":7331", SlowQuery: 25 * time.Hour}}, false},
		{"log-requests negative", serveConfig{Flags: daemon.Flags{Addr: ":7331", SlowQuery: -1, LogEvery: -1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateServeConfig(tc.cfg)
			if (err == nil) != tc.wantOK {
				t.Fatalf("validateServeConfig(%+v) = %v, want ok=%v", tc.cfg, err, tc.wantOK)
			}
		})
	}
}

// TestServerConfigMapping pins the flag-to-config convention for
// -slow-query: flag 0 = log every request (config negative), flag
// negative = disabled (config zero), flag positive = threshold.
func TestServerConfigMapping(t *testing.T) {
	if sc := (daemon.Flags{SlowQuery: -1}).Session(); sc.SlowQuery != 0 || sc.Logger != nil {
		t.Fatalf("disabled: SlowQuery=%v Logger=%v", sc.SlowQuery, sc.Logger)
	}
	if sc := (daemon.Flags{SlowQuery: 0}).Session(); sc.SlowQuery >= 0 || sc.Logger == nil {
		t.Fatalf("log-everything: SlowQuery=%v Logger=%v", sc.SlowQuery, sc.Logger)
	}
	if sc := (daemon.Flags{SlowQuery: 50 * time.Millisecond}).Session(); sc.SlowQuery != 50*time.Millisecond || sc.Logger == nil {
		t.Fatalf("threshold: SlowQuery=%v Logger=%v", sc.SlowQuery, sc.Logger)
	}
	if sc := (daemon.Flags{SlowQuery: -1, LogEvery: 100}).Session(); sc.LogEvery != 100 || sc.Logger == nil {
		t.Fatalf("sampled logging alone must still build a logger: %+v", sc)
	}
}

// TestServeRefusesFormatVersion1: probed on a store of an earlier page
// format (1 to 7) fails with the sentence that says to rebuild it, and
// before it listens: the address here cannot be listened on, so a
// daemon that got that far would fail on the address.
func TestServeRefusesFormatVersion1(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, 4, 5, 6, 7} {
		path := filepath.Join(t.TempDir(), "old.db")
		db, err := probe.Open(probe.MustGrid(2, 10), probe.WithDurability(path))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Stamp the descriptor (page 1, version word after the 8-byte
		// magic) with the old version.
		rs, _, err := disk.RecoverStore(disk.OSFS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, rs.PageSize())
		if err := rs.Read(1, buf); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf[8:12], version)
		if err := rs.Write(1, buf); err != nil {
			t.Fatal(err)
		}
		if err := rs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}

		err = serve(serveConfig{Flags: daemon.Flags{Addr: "127.0.0.1:no-such-port", MaxInflight: 1}, dbPath: path, dims: 2, bits: 10, pool: 16})
		if err == nil {
			t.Fatalf("probed served a version-%d store", version)
		}
		for _, want := range []string{fmt.Sprintf("version %d", version), "version 8", "must be rebuilt"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not say %q", err, want)
			}
		}
	}
}
