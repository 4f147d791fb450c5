package main

import (
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probe"
	"probe/internal/disk"
)

func TestValidateServeConfig(t *testing.T) {
	cases := []struct {
		name   string
		cfg    serveConfig
		wantOK bool
	}{
		{"defaults", serveConfig{addr: ":7331", slowQuery: -1}, true},
		{"admin on its own port", serveConfig{addr: ":7331", admin: ":9090", slowQuery: -1}, true},
		{"admin clashes wildcard", serveConfig{addr: ":7331", admin: ":7331", slowQuery: -1}, false},
		{"admin clashes same host", serveConfig{addr: "127.0.0.1:7331", admin: "127.0.0.1:7331", slowQuery: -1}, false},
		{"admin wildcard vs host, same port", serveConfig{addr: "127.0.0.1:7331", admin: ":7331", slowQuery: -1}, false},
		{"same port distinct hosts", serveConfig{addr: "127.0.0.1:7331", admin: "127.0.0.2:7331", slowQuery: -1}, true},
		{"admin missing port", serveConfig{addr: ":7331", admin: "localhost", slowQuery: -1}, false},
		{"addr unparseable with admin set", serveConfig{addr: "garbage", admin: ":9090", slowQuery: -1}, false},
		{"slow-query zero means log everything", serveConfig{addr: ":7331", slowQuery: 0}, true},
		{"slow-query implausibly large", serveConfig{addr: ":7331", slowQuery: 25 * time.Hour}, false},
		{"log-requests negative", serveConfig{addr: ":7331", slowQuery: -1, logEvery: -1}, false},
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
	if sc := serverConfig(serveConfig{slowQuery: -1}); sc.SlowQuery != 0 || sc.Logger != nil {
		t.Fatalf("disabled: SlowQuery=%v Logger=%v", sc.SlowQuery, sc.Logger)
	}
	if sc := serverConfig(serveConfig{slowQuery: 0}); sc.SlowQuery >= 0 || sc.Logger == nil {
		t.Fatalf("log-everything: SlowQuery=%v Logger=%v", sc.SlowQuery, sc.Logger)
	}
	if sc := serverConfig(serveConfig{slowQuery: 50 * time.Millisecond}); sc.SlowQuery != 50*time.Millisecond || sc.Logger == nil {
		t.Fatalf("threshold: SlowQuery=%v Logger=%v", sc.SlowQuery, sc.Logger)
	}
	if sc := serverConfig(serveConfig{slowQuery: -1, logEvery: 100}); sc.LogEvery != 100 || sc.Logger == nil {
		t.Fatalf("sampled logging alone must still build a logger: %+v", sc)
	}
}

// TestServeRefusesFormatVersion1: probed on a store of the previous
// page format fails with the sentence that says to rebuild it, and
// before it listens: the address here cannot be listened on, so a
// daemon that got that far would fail on the address.
func TestServeRefusesFormatVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.db")
	db, err := probe.Open(probe.MustGrid(2, 10), probe.WithDurability(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Stamp the descriptor (page 1, version word after the 8-byte
	// magic) as version 1.
	rs, _, err := disk.RecoverStore(disk.OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, rs.PageSize())
	if err := rs.Read(1, buf); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[8:12], 1)
	if err := rs.Write(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	err = serve(serveConfig{addr: "127.0.0.1:no-such-port", dbPath: path, dims: 2, bits: 10, pool: 16, maxIn: 1})
	if err == nil {
		t.Fatal("probed served a version-1 store")
	}
	for _, want := range []string{"version 1", "version 2", "must be rebuilt"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
}
