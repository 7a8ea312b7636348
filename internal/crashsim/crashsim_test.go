package crashsim

import (
	"flag"
	"fmt"
	"testing"

	"blobdb/internal/storage"
)

// Replay flags: every crashsim failure prints a one-line invocation using
// these, so any schedule reproduces deterministically.
var (
	flagSeed      = flag.Int64("seed", 1, "master seed for schedule exploration")
	flagTraceSeed = flag.Int64("trace-seed", 0, "replay: trace seed of the schedule")
	flagCrashOp   = flag.Int("crashpoint", -2, "replay: mutating-op index to crash at (-1: end of trace)")
	flagTear      = flag.String("tear", "scramble", "replay: tear mode (ordered|scramble)")
	flagSmall     = flag.Bool("smallpool", false, "replay: shrink the buffer pool")
	flagDedup     = flag.Bool("dedup", false, "replay: use the dedup/relocation-heavy trace generator")
)

func reportFailures(t *testing.T, stats ExploreStats, failures []Failure) {
	t.Helper()
	t.Logf("explored %d schedules across %d traces (seed %d)", stats.Schedules, stats.Traces, *flagSeed)
	for _, f := range failures {
		t.Errorf("schedule failed:\n%v", f)
	}
	if stats.Failures > len(failures) {
		t.Errorf("...and %d more failures (raise the cap or replay individually)", stats.Failures-len(failures))
	}
}

// TestCrashSchedulesShort samples the (trace, crash point) space under
// both tear modes — the bounded
// budget run CI executes on every PR. On failure, each offending schedule
// prints its replay invocation.
func TestCrashSchedulesShort(t *testing.T) {
	cfg := DefaultConfig(*flagSeed)
	if testing.Short() {
		// Keep the -race -short sweep under a few seconds; the dedicated
		// crashsim job and the nightly run use bigger budgets.
		cfg.Traces = 3
		cfg.Points = 30
	}
	cfg.Logf = t.Logf
	stats, failures := Explore(cfg)
	reportFailures(t, stats, failures)
	min := 100
	if !testing.Short() {
		min = 500
	}
	if stats.Schedules < min {
		t.Errorf("explored only %d schedules, want >= %d", stats.Schedules, min)
	}
}

// TestCrashSchedulesDedup sweeps the dedup/relocation trace families:
// duplicate puts (committed and aborted) that share extent sequences,
// deletes of shared blobs, divergent appends/updates on sharers, and
// relocation rounds. Crash points land inside refcount-ledger WAL
// appends and relocation copy/remap windows; every recovery must satisfy
// the reference model, the unique-extent allocator accounting, and the
// ledger-vs-recount cross-check.
func TestCrashSchedulesDedup(t *testing.T) {
	cfg := DefaultDedupConfig(*flagSeed + 3)
	if testing.Short() {
		cfg.Traces = 3
		cfg.Points = 30
	}
	cfg.Logf = t.Logf
	stats, failures := Explore(cfg)
	reportFailures(t, stats, failures)
	min := 100
	if !testing.Short() {
		min = 500
	}
	if stats.Schedules < min {
		t.Errorf("explored only %d dedup schedules, want >= %d", stats.Schedules, min)
	}
}

// TestCrashSchedulesDedupSync sweeps a second seed of the dedup families
// with a smaller budget.
func TestCrashSchedulesDedupSync(t *testing.T) {
	cfg := DefaultDedupConfig(*flagSeed + 4)
	cfg.Traces = 2
	cfg.Points = 15
	cfg.Logf = t.Logf
	stats, failures := Explore(cfg)
	reportFailures(t, stats, failures)
}

// TestCrashSchedulesSmallPool runs a smaller sweep with a pool sized to
// force eviction during flushes (the prevent_evict window), then a second
// seed with the normal pool.
func TestCrashSchedulesSmallPool(t *testing.T) {
	cfg := DefaultConfig(*flagSeed + 1)
	cfg.Traces = 2
	cfg.Points = 15
	cfg.SmallPool = true
	cfg.Logf = t.Logf
	stats, failures := Explore(cfg)
	reportFailures(t, stats, failures)

	cfg = DefaultConfig(*flagSeed + 2)
	cfg.Traces = 2
	cfg.Points = 10
	cfg.Logf = t.Logf
	stats, failures = Explore(cfg)
	reportFailures(t, stats, failures)
}

// TestReplaySchedule re-runs one schedule identified by -trace-seed and
// -crashpoint (printed by every exploration failure). It is skipped unless
// those flags are set.
func TestReplaySchedule(t *testing.T) {
	if *flagCrashOp == -2 && *flagTraceSeed == 0 {
		t.Skip("pass -trace-seed and -crashpoint to replay a schedule")
	}
	mode, err := storage.ParseTearMode(*flagTear)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(*flagSeed)
	cfg.SmallPool = *flagSmall
	cfg.Dedup = *flagDedup
	s := Schedule{TraceSeed: *flagTraceSeed, CrashOp: *flagCrashOp, Mode: mode}
	res, err := cfg.RunSchedule(s, nil)
	if err != nil {
		t.Fatalf("schedule %v failed: %v", s, err)
	}
	t.Logf("schedule %v passed (%d device ops, recovery report %+v)", s, res.Ops, res.Report)
}

// regressionSchedules pins crash points that surfaced real recovery bugs.
// Each entry must keep passing forever.
//
// Torn-second-checkpoint data loss: before checkpoints were dual-slot
// (core/recover.go), the single checkpoint image was overwritten in
// place. Crash point 68 of this trace lands inside the SECOND checkpoint
// image write (the record pass writes checkpoint images at ops 55, 68,
// 71 and 117): with one slot the epoch-1 redo base tears (CRC fails),
// recovery falls back to epoch 0, and the WAL scan — which requires an
// exact epoch match — filters out every epoch-1 flush block. Recovery
// came back empty: total loss of all committed blobs. Op 70, between the
// second and third image writes, where this trace first surfaced the
// bug, stays pinned under both tear modes.
// Unconditionally-replayed refcount decrement double-free: apply-time
// ledger decrements were originally logged under txn id 0 and replayed
// unconditionally. Crash point 108 of this dedup trace syncs a
// transaction's commit record, applies its deferred frees (logging a
// decrement against a 3-way-shared extent), then tears the transaction's
// own extent writes — recovery marks it failed and reverts its tuple to
// the old state still referencing the shared extent, yet the decrement
// replayed anyway: three surviving references, ledger count two, one
// free away from recycling an extent under two live blobs. Decrements
// now carry the staging transaction's id and replay under the same
// committed-and-validated rule as increments.
var regressionSchedules = []struct {
	s     Schedule
	dedup bool
}{
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 68, Mode: storage.TearOrdered}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 68, Mode: storage.TearScramble}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 70, Mode: storage.TearOrdered}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 70, Mode: storage.TearScramble}, false},
	{Schedule{TraceSeed: 8940310146990858404, CrashOp: 108, Mode: storage.TearScramble}, true},
	{Schedule{TraceSeed: 8940310146990858404, CrashOp: 108, Mode: storage.TearOrdered}, true},
}

func TestRegressionSchedules(t *testing.T) {
	for _, rs := range regressionSchedules {
		rs := rs
		t.Run(fmt.Sprintf("%v dedup=%v", rs.s, rs.dedup), func(t *testing.T) {
			cfg := DefaultConfig(1)
			cfg.Dedup = rs.dedup
			if _, err := cfg.RunSchedule(rs.s, nil); err != nil {
				t.Fatalf("pinned schedule regressed: %v", err)
			}
		})
	}
}
