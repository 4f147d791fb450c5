package router

import (
	"errors"
	"fmt"
)

// ErrShardUnavailable is the typed partial-degradation sentinel: a
// shard the request needs has no reachable, caught-up node. The
// concrete error is a *ShardError naming the shard; on the wire it
// becomes wire.CodeUnavailable, which the client surfaces as
// client.ErrUnavailable. The router returns it rather than a silently
// partial result: a scatter answer is all-or-typed-error.
var ErrShardUnavailable = errors.New("router: shard unavailable")

// ShardError reports which shard degraded a request and why. It
// errors.Is-matches ErrShardUnavailable.
type ShardError struct {
	Shard int
	Addr  string // last address tried
	Err   error  // underlying transport/timeout failure
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("router: shard %d (%s) unavailable: %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *ShardError) Unwrap() error { return e.Err }

// Is matches the ErrShardUnavailable sentinel.
func (e *ShardError) Is(target error) bool { return target == ErrShardUnavailable }

// errBackendTimeout is the cancel cause marking a per-backend-call
// watchdog expiry (a hung shard), distinguishing it from the client's
// own deadline.
var errBackendTimeout = errors.New("router: backend call timed out")

// errScatterStop is the cancel cause when the front-side consumer
// stopped a scatter early (emit returned false): not a failure.
var errScatterStop = errors.New("router: consumer stopped")
