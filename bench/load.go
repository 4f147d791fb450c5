package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"probe"
	"probe/client"
)

// checkEvery: every 16th read of a caller is kept for the differential
// comparison with the in-process library.
const checkEvery = 16

// check is one read kept for verification after the measurement.
type check struct {
	o   op
	got answer
}

// caller is one closed-loop client: a generator, a target and what it
// has observed so far.
type caller struct {
	idx    int
	gen    *opGen
	target target

	recs      []opRecord // one per completed operation, in order
	attempted int
	failed    int
	conflicts int
	firstErr  error
	reads     int
	checks    []check

	inserted []probe.Point // acked inserts, tx included, in order
	deleted  []probe.Point // acked deletes

	// traced replay
	tr      *tracer
	samples []traceSample
}

// traceSample is what one traced operation reported.
type traceSample struct {
	kind     opKind
	clientNs int64
	timing   client.Timing
	stats    probe.QueryStats
	tree     *probe.Trace
}

// opRecord is one completed operation as the caller saw it.
type opRecord struct {
	kind  opKind
	end   time.Time
	ms    float64 // from the send to the last byte of the reply
	sched float64 // open loop: ms from the intended send time
	late  float64 // open loop: ms the send ran behind schedule
}

func newCaller(idx int, gen *opGen, t target) *caller {
	return &caller{idx: idx, gen: gen, target: t, recs: make([]opRecord, 0, 1<<14)}
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// step generates and executes the caller's next operation and records
// the outcome. due is the intended send time in the open loop and zero
// in the closed loop.
func (c *caller) step(trace bool, due time.Time) {
	o := c.gen.next()
	start := time.Now()
	var reqSpan int32
	if trace && c.tr != nil {
		reqSpan = c.tr.begin(0, "client."+o.kind.String())
	}
	ans, err := c.target.do(&o, trace)
	end := time.Now()
	c.attempted++
	if err != nil {
		if errors.Is(err, client.ErrTxConflict) || errors.Is(err, probe.ErrTxConflict) {
			c.conflicts++ // an outcome of the protocol, not a failure
		} else {
			c.fail(fmt.Errorf("%s #%d on caller %d: %w", o.kind, c.gen.n, c.idx, err))
		}
		return
	}
	rec := opRecord{kind: o.kind, end: end, ms: float64(end.Sub(start)) / 1e6}
	if !due.IsZero() {
		rec.sched, rec.late = float64(end.Sub(due))/1e6, float64(start.Sub(due))/1e6
	}
	c.recs = append(c.recs, rec)
	if trace && c.tr != nil {
		c.tr.end(reqSpan)
		c.tr.graft(reqSpan, &o, ans)
		c.samples = append(c.samples, traceSample{o.kind, int64(end.Sub(start)), ans.timing, ans.stats, ans.tree})
	}
	switch o.kind {
	case opInsert, opTx:
		if ans.n != len(o.pts) {
			c.fail(fmt.Errorf("%s #%d: %d of %d points acked", o.kind, c.gen.n, ans.n, len(o.pts)))
			return
		}
		c.inserted = append(c.inserted, o.pts...)
		c.gen.live = append(c.gen.live, o.pts...)
	case opDelete:
		// Read-your-acked-writes: every point was acked by an earlier
		// insert of this caller, so every one must have been present.
		if ans.n != len(o.pts) {
			c.fail(fmt.Errorf("delete #%d: %d of %d own points were present", c.gen.n, ans.n, len(o.pts)))
			return
		}
		c.deleted = append(c.deleted, o.pts...)
	case opCheckpoint:
	default:
		c.reads++
		if c.reads%checkEvery == 0 {
			c.checks = append(c.checks, check{o, ans})
		}
	}
}

// phase is the outcome of one measured phase over all callers.
type phase struct {
	start   time.Time
	wall    time.Duration
	ops     int        // attempted
	recs    []opRecord // completed, all callers
	mallocs uint64
	selfCPU float64
	kidsCPU float64
}

// begin notes where each caller's records stand; collect gathers what
// the phase added.
func begin(callers []*caller) (at []int, attempted int) {
	at = make([]int, len(callers))
	for i, c := range callers {
		at[i] = len(c.recs)
		attempted += c.attempted
	}
	return at, attempted
}

func (ph *phase) collect(callers []*caller, at []int, attempted int) {
	ph.wall = time.Since(ph.start)
	ph.ops = -attempted
	for i, c := range callers {
		ph.recs = append(ph.recs, c.recs[at[i]:]...)
		ph.ops += c.attempted
	}
}

// join appends a phase that followed this one under the same load, for
// the timings over both.
func (ph *phase) join(next phase) {
	ph.wall += next.wall
	ph.ops += next.ops
	ph.recs = append(ph.recs, next.recs...)
}

// timings are the whole-phase numbers of a closed loop as its callers
// saw them: completed operations over the phase's wall time, so that
// every stall and tail lands in the rate, and each kind's latency
// quantile over all of the phase's operations. spec.go decides which of
// them carry a bound.
func (ph *phase) timings() map[string]float64 {
	return map[string]float64{
		"ops_per_s":      float64(len(ph.recs)) / ph.wall.Seconds(),
		"range_p50_ms":   ph.latency(opRange, 0.5, opMs),
		"range_p95_ms":   ph.latency(opRange, 0.95, opMs),
		"scan_p50_ms":    ph.latency(opScan, 0.5, opMs),
		"nearest_p50_ms": ph.latency(opNearest, 0.5, opMs),
		"join_p50_ms":    ph.latency(opJoin, 0.5, opMs),
		"query_p50_ms":   ph.latency(opQuery, 0.5, opMs),
	}
}

// latency is the q-quantile of pick over all of the phase's records of
// one kind (of every kind when kind is numKinds).
func (ph *phase) latency(kind opKind, q float64, pick func(*opRecord) float64) float64 {
	var xs []float64
	for i := range ph.recs {
		if r := &ph.recs[i]; kind == numKinds || r.kind == kind {
			xs = append(xs, pick(r))
		}
	}
	return quantile(xs, q)
}

func opMs(r *opRecord) float64    { return r.ms }
func opSched(r *opRecord) float64 { return r.sched }
func opLate(r *opRecord) float64  { return r.late }

// quiet estimates what the phase would have read on an undisturbed
// machine: the phase is cut into windows of half a second and the
// best decile of the windows is taken, of their rates and of their
// range medians. This machine's noise is one-sided (a neighbour slows
// the program down and never speeds it up), so the pair repeats better
// than the whole-phase numbers, and the distance between the two says
// how disturbed a run was. It is a diagnostic only: a stall that hits
// fewer than nine windows in ten does not show in it.
func (ph *phase) quiet() (opsPerS, rangeP50ms float64) {
	const window = 500 * time.Millisecond
	k := max(1, int(ph.wall/window))
	width := ph.wall / time.Duration(k)
	counts := make([]float64, k)
	ranges := make([][]float64, k)
	for i := range ph.recs {
		r := &ph.recs[i]
		j := min(k-1, max(0, int(r.end.Sub(ph.start)/width)))
		counts[j]++
		if r.kind == opRange {
			ranges[j] = append(ranges[j], r.ms)
		}
	}
	var rates, p50s []float64
	for j := range counts {
		rates = append(rates, counts[j]/width.Seconds())
		if len(ranges[j]) > 0 {
			p50s = append(p50s, median(ranges[j]))
		}
	}
	return quantile(rates, 0.9), quantile(p50s, 0.1)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is sorted in place. Zero when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i]*(1-frac) + xs[i+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func (e *env) kidsCPU() float64 {
	var s float64
	for _, c := range e.children() {
		s += cpuSeconds(c.cmd.Process.Pid)
	}
	return s
}

// closedLoop lets every caller issue, wait, issue for d: callers that
// wait for replies are this system's real traffic (client.Conn is one
// request at a time).
func (e *env) closedLoop(callers []*caller, d time.Duration, trace bool) phase {
	deadline := time.Now().Add(d)
	return e.loop(callers, trace, func(int) bool { return time.Now().Before(deadline) })
}

// countedLoop is the closed loop bound by a count instead of the clock:
// every caller completes n operations. What it measures is taken over
// the same operations however fast the machine runs them.
func (e *env) countedLoop(callers []*caller, n int) phase {
	return e.loop(callers, false, func(done int) bool { return done < n })
}

// loop runs the callers side by side, each for as long as more says of
// the operations it has attempted in this phase.
func (e *env) loop(callers []*caller, trace bool, more func(done int) bool) phase {
	var ms0, ms1 runtime.MemStats
	at, attempted := begin(callers)
	runtime.ReadMemStats(&ms0)
	cpu0, kids0 := selfCPUSeconds(), e.kidsCPU()
	ph := phase{start: time.Now()}
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for from := c.attempted; more(c.attempted - from); {
				c.step(trace, time.Time{})
			}
		}(c)
	}
	wg.Wait()
	ph.collect(callers, at, attempted)
	ph.selfCPU, ph.kidsCPU = selfCPUSeconds()-cpu0, e.kidsCPU()-kids0
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	return ph
}

// openLoop offers operations at a fixed rate for d on a fixed schedule
// dealt round-robin to the callers, whether or not earlier ones have
// completed: operation i is due at t0 + i/rate. A caller that is
// still busy sends late, and the wait counts, because latency is
// timed from the due time.
func (e *env) openLoop(callers []*caller, d time.Duration, rate int) phase {
	at, attempted := begin(callers)
	ph := phase{start: time.Now()}
	total := int(d.Seconds() * float64(rate))
	gap := time.Second / time.Duration(rate)
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			for k := i; k < total; k += len(callers) {
				due := ph.start.Add(time.Duration(k) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				c.step(false, due)
			}
		}(i, c)
	}
	wg.Wait()
	ph.collect(callers, at, attempted)
	return ph
}
