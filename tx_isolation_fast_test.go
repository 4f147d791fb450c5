//go:build !slow

package probe_test

// txHarnessSchedules is the number of seeded transaction schedules
// the isolation property harness runs in the default build. The CI
// tx-stress job builds with -tags slow for a deeper sweep.
const txHarnessSchedules = 250

// txCrashSchedules is the number of seeded crash-mid-commit fault
// schedules in the default build.
const txCrashSchedules = 220

// txViewSeeds is the number of seeded write-sets TestTxViewMatchesCommitted
// checks.
const txViewSeeds = 100
