package router

// Distributed tracing on the scatter-gather path. The session layer
// mints (or adopts) a trace ID for each traced front-side request and
// carries it with the request span in the request's context
// (session.TraceFrom), so Router method signatures stay untouched; the
// backend layer picks it up at the call boundary, propagates FlagTrace
// plus the trace ID to the shard over the wire, and grafts each shard's
// returned span tree under a fanout.shard<N>.<kind> node — so one rendered tree shows the
// router's own overhead (merge), every backend call's wall time with
// primary/replica attribution, the shard-reported phase breakdown, and
// the shard's full server-side span tree, exec and page counters
// intact.

import (
	"fmt"
	"time"

	"probe"
	"probe/client"
)

// graft attaches one backend call's subtree to the request span:
// a sealed fanout.shard<N>.<primary|replica> node whose duration is
// the call's wall time as the router saw it, with the shard-reported
// phase breakdown (queue/plan/exec/stream) and the shard's own span
// tree as children. Attach serializes internally, so concurrent
// scatter goroutines graft safely.
func graft(span *probe.Trace, shard int, replica bool, callDur time.Duration, c *client.Conn) {
	kind := "primary"
	if replica {
		kind = "replica"
	}
	node := probe.NewSealedTrace(fmt.Sprintf("fanout.shard%d.%s", shard, kind), callDur)
	t := c.LastTiming()
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"server.queue", t.Queue},
		{"server.plan", t.Plan},
		{"server.exec", t.Exec},
		{"server.stream", t.Stream},
	} {
		if ph.d > 0 {
			node.Attach(probe.NewSealedTrace(ph.name, ph.d))
		}
	}
	if sub := c.LastTraceTree(); sub != nil {
		node.Attach(sub)
	}
	span.Attach(node)
}
