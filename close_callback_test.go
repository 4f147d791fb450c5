package probe_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"probe"
)

// TestCloseFromOwnCallback: Close called from a read's own callback
// returns instead of waiting for the read it runs inside; the read
// then finishes on the store Close left open, and releases it as it
// leaves. Closing another database from the callback returns too. Each case runs in memory and durably under a 3 s deadline;
// the durable database reopens with every committed point.
func TestCloseFromOwnCallback(t *testing.T) {
	g := probe.MustGrid(2, 8)
	pts := make([]probe.Point, 64)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i+1), uint32(4*i), uint32(i))
	}
	reads := []struct {
		name string
		read func(db *probe.DB, closeErr *error) error
	}{
		{"RangeSearchFunc", func(db *probe.DB, closeErr *error) error {
			_, err := db.RangeSearchFunc(probe.Box2(0, 255, 0, 255), func(probe.Point) bool {
				*closeErr = db.Close()
				return false
			})
			return err
		}},
		{"Scan", func(db *probe.DB, closeErr *error) error {
			n := 0
			err := db.Scan(func(probe.Point) bool {
				if n++; n == 2 {
					*closeErr = db.Close()
				}
				return true
			})
			if err == nil && n != len(pts) {
				err = fmt.Errorf("scanned %d of %d points", n, len(pts))
			}
			return err
		}},
		{"TwoDatabases", func(db *probe.DB, closeErr *error) error {
			other, err := probe.Open(g)
			if err != nil {
				return err
			}
			_, err = db.RangeSearchFunc(probe.Box2(0, 255, 0, 255), func(probe.Point) bool {
				*closeErr = errors.Join(other.Close(), db.Close())
				return false
			})
			return err
		}},
		{"View", func(db *probe.DB, closeErr *error) error {
			return db.View(context.Background(), func(*probe.Tx) error {
				*closeErr = db.Close()
				return nil
			})
		}},
	}
	for _, durable := range []bool{false, true} {
		for _, r := range reads {
			name := r.name
			if durable {
				name += "/durable"
			}
			t.Run(name, func(t *testing.T) {
				var opts []probe.Option
				path := filepath.Join(t.TempDir(), "db")
				if durable {
					opts = append(opts, probe.WithDurability(path))
				}
				// No Close on cleanup: after a deadlock it would hang too.
				db, err := probe.Open(g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.InsertAll(pts); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					var closeErr error
					err := r.read(db, &closeErr)
					done <- errors.Join(err, closeErr)
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("Close from a %s callback did not return within 3s", r.name)
				}
				if _, _, err := db.RangeSearch(probe.Box2(0, 7, 0, 7)); !errors.Is(err, probe.ErrClosed) {
					t.Fatalf("a read after Close: got %v, want ErrClosed", err)
				}
				if !durable {
					return
				}
				db, err = probe.Open(g, opts...)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer db.Close()
				got, _, err := db.RangeSearch(probe.Box2(0, 255, 0, 255))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(pts) {
					t.Fatalf("reopened with %d of %d committed points", len(got), len(pts))
				}
			})
		}
	}
}
