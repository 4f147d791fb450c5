//go:build !slow

package probe_test

// Seeds per schedule table; schedule_slow_test.go has the -tags slow
// sweeps. TestCheckpointVsInsertRace runs 25 under both.
const (
	crashSeeds   = 300
	mvccSeeds    = 250
	txSeeds      = 250
	txCrashSeeds = 220
	crossSeeds   = 300
	txViewSeeds  = 100 // TestTxViewMatchesCommitted's write-sets
)
