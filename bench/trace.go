package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"probe"
)

// span is one timed interval of the traced pass. Spans of one request
// share Req, the id of the request's root span; Parent 0 marks a root.
// Times are nanoseconds since the tracer was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the run ends. The benchmark
// records the spans it can see from outside the program: its own
// around each call, and the ones the program already reports (the
// server's timing breakdown, the library's and the router's span
// trees), grafted underneath.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span now; parent 0 starts a new request.
func (t *tracer) begin(parent int32, name string) int32 {
	return t.add(parent, name, t.now(), 0)
}

func (t *tracer) end(id int32) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) add(parent int32, name string, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

func (t *tracer) get(id int32) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// graft hangs what the program reported about a request under the
// benchmark's own client span. A span tree from the program carries
// durations but no start times, so children are laid out from their
// parent's start: one after another, except under a router span,
// whose fan-out children run side by side.
func (t *tracer) graft(req int32, o *op, ans answer) {
	root := t.get(req)
	tm := ans.timing
	switch {
	case ans.tree != nil && strings.HasPrefix(ans.tree.Name(), "router."):
		t.importTree(req, ans.tree, root.Start+(root.End-root.Start-int64(ans.tree.Duration()))/2)
	case tm.Total > 0:
		// The server's total lies somewhere inside the client's
		// interval; centre it. What is left over is the client's self
		// time: encode, kernel, decode.
		at := root.Start + (root.End-root.Start-int64(tm.Total))/2
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"server.queue", tm.Queue}, {"server.plan", tm.Plan}, {"server.exec", tm.Exec}, {"server.stream", tm.Stream}} {
			id := t.add(req, ph.name, at, at+int64(ph.d))
			if ph.name == "server.exec" && ans.tree != nil {
				t.importChildren(id, ans.tree, at)
			}
			at += int64(ph.d)
		}
	case ans.tree != nil:
		t.importChildren(req, ans.tree, root.Start)
	}
}

func (t *tracer) importTree(parent int32, s *probe.Trace, start int64) {
	id := t.add(parent, s.Name(), start, start+int64(s.Duration()))
	t.importChildren(id, s, start)
}

func (t *tracer) importChildren(parent int32, s *probe.Trace, start int64) {
	parallel := strings.HasPrefix(s.Name(), "router.")
	at := start
	for _, c := range s.Children() {
		t.importTree(parent, c, at)
		if !parallel {
			at += int64(c.Duration())
		}
	}
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, at := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// write saves the spans and their self-time summary as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNs map[string]int64 `json:"self_ns_by_name"`
	}{t.spans, self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
