// Package daemon is what probed and zrouted share around their front
// end: the flags both declare and their checks, the one mapping of
// those flags onto session.Config, and Run — the ready line, the admin
// listener that outlives the drain, and the drain on SIGTERM/SIGINT.
// The two commands differ only in the front end they build.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"probe/internal/session"
)

// Flags are the settings both daemons take on the command line.
type Flags struct {
	Addr, Admin string
	MaxInflight int
	Drain       time.Duration
	Batch       int
	SlowQuery   time.Duration // 0 logs every request; negative disables
	LogEvery    int
	TraceBuffer int
}

// Register declares the shared flags on fs. addr and maxInflight are
// the binary's own defaults, addrUsage what its -addr means.
func (f *Flags) Register(fs *flag.FlagSet, addr, addrUsage string, maxInflight int) {
	fs.StringVar(&f.Addr, "addr", addr, addrUsage)
	fs.StringVar(&f.Admin, "admin", "", "admin HTTP address serving /metrics, /debug/pprof, /healthz, /readyz; empty disables")
	fs.IntVar(&f.MaxInflight, "max-inflight", maxInflight, "admission control: max concurrently executing requests")
	fs.DurationVar(&f.Drain, "drain", 5*time.Second, "graceful drain timeout on shutdown")
	fs.IntVar(&f.Batch, "batch", 512, "results per streamed batch frame")
	fs.DurationVar(&f.SlowQuery, "slow-query", -1, "log requests at/above this latency at warn with their trace; 0 logs every request; negative disables")
	fs.IntVar(&f.LogEvery, "log-requests", 0, "log every Nth request at info; 0 disables")
	fs.IntVar(&f.TraceBuffer, "trace-buffer", 64, "capacity of the /debug/traces ring of recent traced, slow, and sampled requests")
}

// Check rejects shared settings that would start and then misbehave:
// an admin endpoint colliding with the query listener, or logging
// thresholds outside their meaningful range.
func (f Flags) Check() error {
	if f.Admin != "" {
		ahost, aport, err := net.SplitHostPort(f.Admin)
		if err != nil {
			return fmt.Errorf("bad -admin address %q: %v", f.Admin, err)
		}
		qhost, qport, err := net.SplitHostPort(f.Addr)
		if err != nil {
			return fmt.Errorf("bad -addr address %q: %v", f.Addr, err)
		}
		// A port shared with the query listener is a clash when either
		// side binds the wildcard or both name the same host.
		if aport == qport && (ahost == "" || qhost == "" || ahost == qhost) {
			return fmt.Errorf("-admin %s clashes with -addr %s: same port", f.Admin, f.Addr)
		}
	}
	if f.SlowQuery > 24*time.Hour {
		return fmt.Errorf("-slow-query %s is not a plausible threshold (max 24h)", f.SlowQuery)
	}
	if f.LogEvery < 0 {
		return fmt.Errorf("-log-requests %d: the sample interval cannot be negative", f.LogEvery)
	}
	return nil
}

// Session maps the flags onto the session layer's settings. The flag's
// -slow-query 0 means "log every request" (the config's negative), its
// negative means disabled (the config's zero); a Logger exists exactly
// when some logging is on.
func (f Flags) Session() session.Config {
	c := session.Config{
		MaxInflight:  f.MaxInflight,
		DrainTimeout: f.Drain,
		BatchSize:    f.Batch,
		LogEvery:     f.LogEvery,
		TraceBuffer:  f.TraceBuffer,
	}
	switch {
	case f.SlowQuery == 0:
		c.SlowQuery = -1
	case f.SlowQuery > 0:
		c.SlowQuery = f.SlowQuery
	}
	if f.SlowQuery >= 0 || f.LogEvery > 0 {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return c
}

// Front is the front end a daemon serves: *server.Server and
// *router.Router are.
type Front interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	AdminHandler() http.Handler
}

// Run binds -addr and -admin, prints the ready line
//
//	<name>: <mode> on <addr> (max-inflight N)
//
// — the first line naming an address, which scripts wait for — then
// each note and the admin address, and serves front until SIGTERM or
// SIGINT. It then drains: stop (the front end's own hook; nil for none),
// then front.Shutdown, while the admin endpoint keeps answering /readyz
// with 503; it closes only after Shutdown returns. A second signal
// during the drain returns at once. Every way out — signal, a Serve
// error, a listener that cannot bind — runs stop and Shutdown.
func Run(name, mode string, f Flags, front Front, stop func(), notes ...string) error {
	sigs := make(chan os.Signal, 2) // the one that drains, the one that exits hard
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)
	return run(os.Stdout, sigs, name, mode, f, front, stop, notes)
}

func run(out io.Writer, sigs <-chan os.Signal, name, mode string, f Flags, front Front, stop func(), notes []string) error {
	drain := func() error {
		if stop != nil {
			stop()
		}
		return front.Shutdown(context.Background())
	}
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return errors.Join(err, drain())
	}
	if f.Admin != "" {
		aln, err := net.Listen("tcp", f.Admin)
		if err != nil {
			ln.Close()
			return errors.Join(err, drain())
		}
		admin := &http.Server{Handler: front.AdminHandler()}
		defer admin.Close()
		go admin.Serve(aln)
		notes = append(notes, fmt.Sprintf("admin endpoint on http://%s/metrics", aln.Addr()))
	}
	fmt.Fprintf(out, "%s: %s on %s (max-inflight %d)\n", name, mode, ln.Addr(), f.MaxInflight)
	for _, note := range notes {
		fmt.Fprintf(out, "%s: %s\n", name, note)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- front.Serve(ln) }()
	select {
	case err := <-errCh:
		return errors.Join(err, drain())
	case sig := <-sigs:
		fmt.Fprintf(out, "%s: %v: draining (timeout %s)\n", name, sig, f.Drain)
	}
	done := make(chan error, 1) // a hard exit leaves the drain behind
	go func() { done <- drain() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Fprintf(out, "%s: drained, closed\n", name)
		return nil
	case sig := <-sigs:
		return fmt.Errorf("%v during drain: exiting hard", sig)
	}
}
