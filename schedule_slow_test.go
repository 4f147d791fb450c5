//go:build slow

package probe_test

// Seeds per schedule table under -tags slow, the CI deep sweeps.
const (
	crashSeeds   = 2000
	mvccSeeds    = 1200
	txSeeds      = 1200
	txCrashSeeds = 1000
	crossSeeds   = 2000
	txViewSeeds  = 1000 // TestTxViewMatchesCommitted's write-sets
)
