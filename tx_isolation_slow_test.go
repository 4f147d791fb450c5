//go:build slow

package probe_test

// txHarnessSchedules under -tags slow: the deep sweep the CI
// tx-stress job runs.
const txHarnessSchedules = 1200

// txCrashSchedules under -tags slow.
const txCrashSchedules = 1000

// txViewSeeds is the number of seeded write-sets TestTxViewMatchesCommitted
// checks under -tags slow.
const txViewSeeds = 1000
