package server

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"probe"
	"probe/client"
	"probe/internal/router"
	"probe/internal/session"
	"probe/internal/wire"
)

// frontDoor is one wire front end under the conformance test: probed's
// Server, or zrouted's Router over one probed shard. Both run the same
// session layer, so every case must hold for both.
type frontDoor struct {
	*session.Server
	name     string // the front end's metric prefix
	addr     string
	points   int // points a full-grid read returns
	shutdown func(context.Context) error
}

// conformanceCfg is set on the front door under test: two admission
// slots for the overload case, small batches so a full-grid read is
// still streaming when a second frame lands.
var conformanceCfg = Config{MaxInflight: 2, BatchSize: 16, DrainTimeout: 5 * time.Second}

func openProbed(t *testing.T, seed []probe.Point) frontDoor {
	srv, addr, _ := startServer(t, conformanceCfg, seed)
	return frontDoor{Server: srv.Server, name: "server", addr: addr, points: len(seed), shutdown: srv.Shutdown}
}

func openZrouted(t *testing.T, seed []probe.Point) frontDoor {
	_, shard, _ := startServer(t, Config{}, seed)
	m, err := router.BuildEvenMap(router.DefaultPrefixBits(1), []string{shard}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := router.New(router.Config{
		Map:          m,
		MaxInflight:  conformanceCfg.MaxInflight,
		BatchSize:    conformanceCfg.BatchSize,
		DrainTimeout: conformanceCfg.DrainTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Shutdown(context.Background()) })
	return frontDoor{Server: r.Server, name: "router", addr: ln.Addr().String(), points: len(seed), shutdown: r.Shutdown}
}

// pipeHandshake serves one session of fd over an unbuffered net.Pipe
// and says hello on it at the current version. A write on the pipe
// returns only once the other side has read it, so nothing the front
// door sends can leave before the test reads.
func pipeHandshake(t *testing.T, fd frontDoor) net.Conn {
	t.Helper()
	conn, sconn := net.Pipe()
	t.Cleanup(func() { conn.Close(); sconn.Close() })
	go fd.ServeConn(sconn)
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Major: wire.VersionMajor, Minor: wire.VersionMinor}.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgWelcome {
		t.Fatalf("handshake: type 0x%02x err %v", typ, err)
	}
	return conn
}

// helloRefused says hello with a version the front door must refuse:
// the answer is the typed version error, then the connection closes.
func helloRefused(t *testing.T, addr string, hello wire.Hello) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.MsgHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("hello %d.%d: got frame 0x%02x, want error", hello.Major, hello.Minor, typ)
	}
	em, err := wire.DecodeErrorMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if em.Code != wire.CodeVersion {
		t.Fatalf("hello %d.%d: got code %d, want version mismatch", hello.Major, hello.Minor, em.Code)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatalf("hello %d.%d: connection stayed open after the refusal (frame 0x%02x)", hello.Major, hello.Minor, typ)
	}
}

// TestFrontDoorConformance runs the protocol-level contract — what a
// client can observe about sessions rather than about data — against
// both front ends.
func TestFrontDoorConformance(t *testing.T) {
	fullLo, fullHi := fullBox()
	cases := []struct {
		name string
		seed int
		run  func(t *testing.T, fd frontDoor)
	}{
		// A wrong major version is refused with the typed code before
		// any request runs.
		{"hello major mismatch", 0, func(t *testing.T, fd frontDoor) {
			helloRefused(t, fd.addr, wire.Hello{Major: 99})
		}},

		// The protocol floor: a minor below wire.MinMinor is refused the
		// same way and the connection closes; the floor itself is
		// welcomed.
		{"hello minor floor", 0, func(t *testing.T, fd frontDoor) {
			for _, minor := range []uint8{0, wire.MinMinor - 1} {
				helloRefused(t, fd.addr, wire.Hello{Major: wire.VersionMajor, Minor: minor})
			}
			conn, err := net.Dial("tcp", fd.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Major: wire.VersionMajor, Minor: wire.MinMinor}.Encode()); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgWelcome {
				t.Fatalf("minor %d: type 0x%02x err %v, want welcome", wire.MinMinor, typ, err)
			}
		}},

		// A second request while one is in flight is answered with a
		// bad-request error carrying the new request's id, and the first
		// request still completes. Both frames go out before the test
		// reads anything, over a pipe: the first request's first batch
		// cannot leave until then, so the first request is still
		// streaming when the second arrives, however the goroutines are
		// scheduled.
		{"pipelining rejected", 20000, func(t *testing.T, fd frontDoor) {
			conn := pipeHandshake(t, fd)
			big := wire.RangeReq{Header: wire.Header{ID: 1}, Lo: fullLo, Hi: fullHi}
			if err := wire.WriteFrame(conn, wire.MsgRange, big.Encode()); err != nil {
				t.Fatal(err)
			}
			second := wire.RangeReq{Header: wire.Header{ID: 2},
				Lo: []uint32{0, 0}, Hi: []uint32{10, 10}}
			if err := wire.WriteFrame(conn, wire.MsgRange, second.Encode()); err != nil {
				t.Fatal(err)
			}
			var sawReject, sawDone bool
			for !sawDone {
				typ, payload, err := wire.ReadFrame(conn)
				if err != nil {
					t.Fatal(err)
				}
				switch typ {
				case wire.MsgError:
					em, err := wire.DecodeErrorMsg(payload)
					if err != nil {
						t.Fatal(err)
					}
					if em.ID == 2 && em.Code == wire.CodeBadRequest {
						sawReject = true
					} else if em.ID == 1 {
						t.Fatalf("first request failed: %s", em.Msg)
					}
				case wire.MsgDone:
					dn, err := wire.DecodeDone(payload)
					if err != nil {
						t.Fatal(err)
					}
					if dn.ID == 1 {
						sawDone = true
					}
				}
			}
			if !sawReject {
				t.Fatal("pipelined request was not rejected")
			}
		}},

		// Admission control, deterministically: with every slot held, a
		// request is rejected immediately with the typed overloaded
		// error; freeing a slot lets the retry through.
		{"overload fail-fast", 100, func(t *testing.T, fd frontDoor) {
			cl := dial(t, fd.addr)
			// Hold both slots the way executing requests would.
			if !fd.BeginRequest() || !fd.BeginRequest() {
				t.Fatal("could not claim admission slots")
			}
			_, _, err := cl.Range(context.Background(), fullLo, fullHi)
			if !errors.Is(err, client.ErrOverloaded) {
				t.Fatalf("saturated front door: got %v, want ErrOverloaded", err)
			}
			if got := fd.Metrics().Int(fd.name + ".rejected").Value(); got == 0 {
				t.Fatalf("%s.rejected not bumped", fd.name)
			}
			fd.EndRequest()
			if _, _, err := cl.Range(context.Background(), fullLo, fullHi); err != nil {
				t.Fatalf("after freeing a slot: %v", err)
			}
			fd.EndRequest()
		}},

		// Cancelling the context mid-stream stops the query (typed
		// canceled error), and the session stays fully usable for the
		// next request. The session runs over an unbuffered net.Pipe so
		// the front door is deterministically still streaming when the
		// CANCEL frame lands — no TCP buffering race.
		{"cancel mid-stream", 20000, func(t *testing.T, fd frontDoor) {
			cs, ssConn := net.Pipe()
			t.Cleanup(func() { cs.Close(); ssConn.Close() })
			go fd.ServeConn(ssConn)
			cl, err := client.NewConn(cs)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			n := 0
			_, err = cl.RangeFunc(ctx, fullLo, fullHi, func(probe.Point) bool {
				n++
				if n == 5 {
					cancel()
				}
				return true
			})
			if !errors.Is(err, client.ErrCanceled) && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query: got %v, want canceled", err)
			}

			// The same connection serves the next query completely.
			got, _, err := cl.Range(context.Background(), fullLo, fullHi)
			if err != nil {
				t.Fatalf("query after cancel: %v", err)
			}
			if len(got) != fd.points {
				t.Fatalf("query after cancel: got %d points, want %d", len(got), fd.points)
			}
			if fd.Metrics().Int(fd.name+".cancelled").Value() == 0 {
				t.Fatalf("%s.cancelled not bumped", fd.name)
			}
		}},

		// A drain refuses new requests with the typed shutting-down
		// error while it waits out the in-flight one, then completes.
		{"drain refuses with shutting-down", 100, func(t *testing.T, fd frontDoor) {
			cl := dial(t, fd.addr)
			// Pin an in-flight request so Shutdown sits in its grace
			// period.
			if !fd.BeginRequest() {
				t.Fatal("could not claim a request slot")
			}
			drainDone := make(chan error, 1)
			go func() { drainDone <- fd.shutdown(context.Background()) }()
			deadline := time.Now().Add(5 * time.Second)
			for !fd.Draining() {
				if time.Now().After(deadline) {
					t.Fatal("front door never started draining")
				}
				time.Sleep(time.Millisecond)
			}
			if _, _, err := cl.Range(context.Background(), fullLo, fullHi); !errors.Is(err, client.ErrShuttingDown) {
				t.Fatalf("drain reject: got %v, want ErrShuttingDown", err)
			}
			fd.EndRequest()
			if err := <-drainDone; err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		}},

		// A box, join item, point or query point that reaches outside the
		// grid is malformed: every front door refuses it with the typed
		// bad-request error, before any engine sees it, and the session
		// stays usable.
		{"outside the grid", 100, func(t *testing.T, fd frontDoor) {
			cl := dial(t, fd.addr)
			ctx := context.Background()
			in := []client.BoxItem{{ID: 2, Lo: []uint32{0, 0}, Hi: []uint32{5, 5}}}
			for _, rc := range []struct {
				name string
				do   func() error
			}{
				{"range", func() error { _, _, err := cl.Range(ctx, []uint32{0, 0}, []uint32{1024, 10}); return err }},
				{"explain", func() error { _, err := cl.Explain(ctx, []uint32{7, 2000}, []uint32{9, 2001}); return err }},
				{"join", func() error {
					_, _, err := cl.Join(ctx, []client.BoxItem{{ID: 1, Lo: []uint32{0, 0}, Hi: []uint32{10, 4096}}}, in, 0)
					return err
				}},
				{"insert", func() error { _, err := cl.Insert(ctx, []probe.Point{probe.Pt2(1<<40, 1024, 5)}); return err }},
				{"delete", func() error { _, err := cl.Delete(ctx, []probe.Point{probe.Pt2(1<<40, 5, 1<<31)}); return err }},
				{"nearest", func() error { _, _, err := cl.Nearest(ctx, []uint32{5, 1024}, 3, probe.Euclidean); return err }},
			} {
				var se *client.ServerError
				if err := rc.do(); !errors.As(err, &se) || se.Code != wire.CodeBadRequest {
					t.Errorf("%s outside the grid: got %v, want a typed bad-request", rc.name, err)
				}
			}
			got, _, err := cl.Range(ctx, fullLo, fullHi)
			if err != nil || len(got) != fd.points {
				t.Fatalf("range after the refusals: %d points, err %v; want %d", len(got), err, fd.points)
			}
		}},

		// BEGIN opens a transaction on a node; the router has none and
		// answers the typed bad-request error. Either way the session
		// stays usable.
		{"begin", 100, func(t *testing.T, fd frontDoor) {
			cl := dial(t, fd.addr)
			ctx := context.Background()
			tx, err := cl.Begin(ctx)
			if fd.name == "router" {
				var se *client.ServerError
				if !errors.As(err, &se) || se.Code != wire.CodeBadRequest {
					t.Fatalf("begin through the router: got %v, want a typed bad-request", err)
				}
			} else if err != nil {
				t.Fatalf("begin: %v", err)
			} else if err := tx.Rollback(ctx); err != nil {
				t.Fatalf("rollback: %v", err)
			}
			got, _, err := cl.Range(ctx, fullLo, fullHi)
			if err != nil || len(got) != fd.points {
				t.Fatalf("range after begin: %d points, err %v; want %d", len(got), err, fd.points)
			}
		}},
	}
	for _, door := range []struct {
		name string
		open func(*testing.T, []probe.Point) frontDoor
	}{{"probed", openProbed}, {"zrouted", openZrouted}} {
		for _, tc := range cases {
			t.Run(door.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, door.open(t, randPoints(rand.New(rand.NewSource(6)), tc.seed, 0)))
			})
		}
	}
}
