package crashsim

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"blobdb/internal/core"
	"blobdb/internal/storage"
)

// Replay flags: every crashsim failure prints a one-line invocation using
// these, so any schedule reproduces deterministically.
var (
	flagSeed       = flag.Int64("seed", 1, "master seed for schedule exploration")
	flagTraceSeed  = flag.Int64("trace-seed", 0, "replay: trace seed of the schedule")
	flagCrashOp    = flag.Int("crashpoint", -2, "replay: mutating-op index to crash at (-1: end of trace)")
	flagTear       = flag.String("tear", "scramble", "replay: tear mode (ordered|scramble)")
	flagSmall      = flag.Bool("smallpool", false, "replay: shrink the buffer pool")
	flagDedup      = flag.Bool("dedup", false, "replay: use the dedup/relocation-heavy trace generator")
	flagShards     = flag.Int("topo-shards", 0, "replay: ring members at trace start (0: the replay test's default)")
	flagCrashShard = flag.Int("topo-crash-shard", 0, "replay: shard whose device the crash point arms")
	flagRebalance  = flag.Bool("topo-rebalance", false, "replay: reshard into a new shard after the trace")
	flagPullEvery  = flag.Int("pull-every", 0, "replay: replica pull cadence in commit batches (0: the replay test's default)")
)

// sweep explores cfg, reports every failing schedule with its replay
// line, requires at least min schedules, and requires the sweep to leave
// no goroutine behind: every engine it opened — crashed, surviving,
// reshard destination, recovered, promoted — must end up quiesced.
func sweep(t *testing.T, cfg Config, min int) Stats {
	t.Helper()
	start := runtime.NumGoroutine()
	cfg.Logf = t.Logf
	stats, failures := Explore(cfg)
	t.Logf("explored %d schedules across %d traces (seed %d): %d survivor ops, %d shed ops, %d batches verified at/below horizon, %d schedules with a stale tail",
		stats.Schedules, stats.Traces, cfg.Seed, stats.SurvivorOps, stats.ShedOps, stats.Replicated, stats.StaleTail)
	t.Log(stats.RecoveryLine())
	if line := stats.TransferLine(); line != "" {
		t.Log(line)
	}
	for _, f := range failures {
		t.Errorf("schedule failed:\n%v", f)
	}
	if stats.Failures > len(failures) {
		t.Errorf("...and %d more failures (raise the cap or replay individually)", stats.Failures-len(failures))
	}
	if stats.Schedules < min {
		t.Errorf("explored only %d schedules, want >= %d", stats.Schedules, min)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > start; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > start {
		buf := make([]byte, 1<<20)
		t.Errorf("sweep leaked %d goroutines (%d before, %d after settling):\n%s", n-start, start, n, buf[:runtime.Stack(buf, true)])
	}
	return stats
}

// shortOr picks the -short budget or the full one.
func shortOr(short, full int) int {
	if testing.Short() {
		return short
	}
	return full
}

// TestCrashSchedulesShort samples the base world's (trace, crash point)
// space under both tear modes — the bounded budget CI runs on every
// change. Under -short (the -race sweep) it keeps to a few seconds; the
// dedicated crashsim job and the nightly run use bigger budgets.
func TestCrashSchedulesShort(t *testing.T) {
	cfg := DefaultConfig(*flagSeed)
	cfg.Traces, cfg.Points = shortOr(3, cfg.Traces), shortOr(30, cfg.Points)
	sweep(t, cfg, shortOr(100, 500))
}

// TestCrashSchedulesDedup sweeps the dedup/relocation trace families:
// duplicate puts (committed and aborted) that share extent sequences,
// deletes of shared blobs, divergent appends/updates on sharers, and
// relocation rounds. Crash points land inside refcount-ledger WAL
// appends and relocation copy/remap windows; every recovery must satisfy
// the reference model, the unique-extent allocator accounting, and the
// ledger-vs-recount cross-check.
func TestCrashSchedulesDedup(t *testing.T) {
	cfg := DefaultConfig(*flagSeed + 3)
	cfg.Dedup = true
	cfg.Traces, cfg.Points = shortOr(3, cfg.Traces), shortOr(30, cfg.Points)
	sweep(t, cfg, shortOr(100, 500))
}

// TestCrashSchedulesDedupSync sweeps a second seed of the dedup families
// with a smaller budget.
func TestCrashSchedulesDedupSync(t *testing.T) {
	cfg := DefaultConfig(*flagSeed + 4)
	cfg.Dedup = true
	cfg.Traces, cfg.Points = 2, 15
	sweep(t, cfg, 0)
}

// TestCrashSchedulesSmallPool runs a smaller sweep with a pool sized to
// force eviction during flushes (the prevent_evict window), then a second
// seed with the normal pool.
func TestCrashSchedulesSmallPool(t *testing.T) {
	cfg := DefaultConfig(*flagSeed + 1)
	cfg.Traces, cfg.Points, cfg.SmallPool = 2, 15, true
	sweep(t, cfg, 0)

	cfg = DefaultConfig(*flagSeed + 2)
	cfg.Traces, cfg.Points = 2, 10
	sweep(t, cfg, 0)
}

// TestTopologySchedulesShort samples the topology families: 3-shard
// clusters, one shard's device crashed at sampled points during steady
// serving and inside a live reshard, both tear modes. Besides survivor
// isolation, crashed-shard recovery and reshard no-lost-blob, it asserts
// that the sweep exercised the isolation paths at all.
func TestTopologySchedulesShort(t *testing.T) {
	cfg := DefaultTopoConfig(*flagSeed)
	cfg.Traces, cfg.Points = shortOr(1, cfg.Traces), shortOr(2, cfg.Points)
	stats := sweep(t, cfg, shortOr(12, 40))
	// A sweep that never drove an op through a survivor (or never hit the
	// crashed shard's fast-fail path) proves nothing about isolation.
	if stats.SurvivorOps == 0 {
		t.Error("no post-crash ops served by surviving shards — isolation was never exercised")
	}
	if stats.ShedOps == 0 {
		t.Error("no ops fast-rejected for the crashed shard — ErrShardDown path was never exercised")
	}
}

// TestFailoverSchedulesShort samples the failover family: a replica
// tails a fault-armed primary, the primary crashes at sampled points
// under both tear modes, the replica is promoted, and every promoted
// image must hold — byte-identical — every acknowledged commit at or
// below the client-observed replicated LSN horizon. It also asserts the
// sweep exercised both sides of the contract: batches exactly verified
// below the horizon, and schedules where the crash cut off an
// unreplicated tail.
func TestFailoverSchedulesShort(t *testing.T) {
	cfg := DefaultFailoverConfig(*flagSeed)
	cfg.Traces, cfg.Points = shortOr(2, cfg.Traces), shortOr(5, cfg.Points)
	stats := sweep(t, cfg, shortOr(15, 40))
	if stats.Replicated == 0 {
		t.Error("no batch was ever verified at or below the horizon — replication was never exercised")
	}
	if stats.StaleTail == 0 {
		t.Error("no schedule lost an unreplicated tail — the crash never outran the replica, so the horizon bound was never tested")
	}
}

// TestComposedSchedulesShort composes families at no harness cost. The
// dedup traces (dup-put, dup-put-abort, relocate) run routed over 3
// shards, crashed in steady serving and inside a live reshard; and with a
// replica tailing the crashed primary, whose record applies adopt content
// the replica already holds. Relocation rounds run on every live shard.
func TestComposedSchedulesShort(t *testing.T) {
	topo := DefaultTopoConfig(*flagSeed + 5)
	topo.Dedup = true
	topo.Traces, topo.Points = 1, shortOr(2, topo.Points)
	failover := DefaultFailoverConfig(*flagSeed + 5)
	failover.Dedup = true
	failover.Traces, failover.Points = 2, shortOr(3, 8)
	for _, tc := range []struct {
		name string
		cfg  Config
		min  int
	}{
		{"topology-dedup", topo, shortOr(12, 24)},
		{"failover-dedup", failover, shortOr(12, 30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats := sweep(t, tc.cfg, tc.min)
			if tc.cfg.Shards > 1 && (stats.SurvivorOps == 0 || stats.ShedOps == 0) {
				t.Errorf("isolation paths not exercised: %d survivor ops, %d shed ops", stats.SurvivorOps, stats.ShedOps)
			}
			if tc.cfg.PullEvery != 0 && (stats.Replicated == 0 || stats.Transfers.Outcomes[core.TransferAdopted] == 0) {
				t.Errorf("replica applies not exercised: %d batches verified at or below the horizon, %s",
					stats.Replicated, stats.TransferLine())
			}
		})
	}
}

// TestTailSchedules crashes at every device op inside trace ops that
// handle tail extents, under both tear modes: a put whose last extent
// becomes its tail at Close, an append that turns a tail back into the
// tier extent it stood in for, a dedup put that adopts a tail-ending
// sequence, and a live reshard whose installs leave tail-ending states on
// the destination. Each case takes the first such op in the first traces
// of its family that have one.
func TestTailSchedules(t *testing.T) {
	base := DefaultConfig(*flagSeed + 6)
	dedup := base
	dedup.Dedup = true
	topo := DefaultTopoConfig(*flagSeed + 6)
	for _, tc := range []struct {
		name string
		cfg  Config
		reb  bool
		pick func(OpSpan) bool
	}{
		{"put-converts-tail", base, false, func(s OpSpan) bool { return s.Kind == "put" && s.Tail }},
		{"append-clones-tail", base, false, func(s OpSpan) bool { return s.Kind == "append" && s.BaseTail }},
		{"dedup-adopts-tail", dedup, false, func(s OpSpan) bool { return s.Kind == "put-dup" && s.Adopted && s.Tail }},
		{"reshard-installs-tail", topo, true, func(s OpSpan) bool { return s.Kind == "reshard" && s.Tail }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.spans = true
			master := rand.New(rand.NewSource(cfg.Seed))
			for i := 0; i < 8; i++ {
				seed := master.Int63()
				rec, err := cfg.RunSchedule(Schedule{TraceSeed: seed, CrashOp: -1, Mode: storage.TearOrdered, Rebalance: tc.reb}, nil)
				if err != nil {
					t.Fatalf("record pass of trace-seed=%d: %v", seed, err)
				}
				for _, sp := range rec.Spans {
					if !tc.pick(sp) {
						continue
					}
					for op := sp.Lo; op < sp.Hi; op++ {
						for _, mode := range []storage.TearMode{storage.TearOrdered, storage.TearScramble} {
							s := Schedule{TraceSeed: seed, CrashShard: sp.Shard, CrashOp: op, Mode: mode, Rebalance: tc.reb}
							if _, err := cfg.RunSchedule(s, rec.OpHashes); err != nil {
								t.Errorf("schedule %v (inside %s of %q, trace op %d) failed: %v", s, sp.Kind, sp.Key, sp.Op, err)
							}
						}
					}
					t.Logf("trace-seed=%d: crashed at each of device ops %d..%d of shard %d, inside %s of %q (trace op %d)",
						seed, sp.Lo, sp.Hi-1, sp.Shard, sp.Kind, sp.Key, sp.Op)
					return
				}
			}
			t.Fatal("none of the first eight traces has such an op")
		})
	}
}

// replay re-runs one schedule identified by the flags every Failure
// prints; shards and pullEvery are the defaults when -topo-shards and
// -pull-every are unset. It is skipped unless -trace-seed or -crashpoint
// is set.
func replay(t *testing.T, shards, pullEvery int) {
	if *flagCrashOp == -2 && *flagTraceSeed == 0 {
		t.Skip("pass -trace-seed and -crashpoint (plus the printed -smallpool/-dedup/-topo-*/-pull-every flags) to replay a schedule")
	}
	mode, err := storage.ParseTearMode(*flagTear)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(*flagSeed)
	cfg.SmallPool, cfg.Dedup, cfg.Shards = *flagSmall, *flagDedup, shards
	if *flagShards > 0 {
		cfg.Shards = *flagShards
	}
	if *flagPullEvery > 0 {
		pullEvery = *flagPullEvery
	}
	s := Schedule{TraceSeed: *flagTraceSeed, CrashShard: *flagCrashShard, CrashOp: *flagCrashOp,
		Mode: mode, Rebalance: *flagRebalance, PullEvery: pullEvery}
	res, err := cfg.RunSchedule(s, nil)
	if err != nil {
		t.Fatalf("schedule %v failed: %v", s, err)
	}
	t.Logf("schedule %v passed (device ops %v, served %d, shed %d, horizon %d, %d/%d batches replicated, recovery report %+v)",
		s, res.Ops, res.Served, res.Shed, res.Horizon, res.Replicated, res.Acked, res.Report)
}

// TestReplaySchedule replays a schedule of any family.
func TestReplaySchedule(t *testing.T) { replay(t, 1, 0) }

// TestReplayTopoSchedule replays a schedule on a 3-shard cluster unless
// -topo-shards says otherwise.
func TestReplayTopoSchedule(t *testing.T) { replay(t, 3, 0) }

// TestReplayFailoverSchedule replays a failover schedule, pulling after
// every batch unless -pull-every says otherwise.
func TestReplayFailoverSchedule(t *testing.T) { replay(t, 1, 1) }

// recordPins fixes the record pass (no mid-trace crash) of each trace the
// regression schedules below use: its mutating-op count and final op
// hash. Those crash points are only meaningful while the I/O schedule
// stays the one they were found on. A durable CreateRelation adds its WAL
// block and sync ahead of the trace, which moved the checkpoint image
// writes from ops 56, 74, 83 and 131 to 58, 76, 85 and 133. The scramble
// tear is seeded by the crash op, so each point was re-checked against its
// bug with the fix reverted, and the dedup point moved to the window that
// still shows it.
var recordPins = []struct {
	seed  int64
	dedup bool
	ops   int
	hash  uint64
}{
	{7338701143958340983, false, 137, 0xc2918280ceadca83},
	{8940310146990858404, true, 123, 0x9148e72334bf5117},
}

// regressionSchedules pins crash points that surfaced real recovery bugs.
// Each entry must keep passing forever.
//
// Torn-second-checkpoint data loss: before checkpoints were dual-slot
// (core/recover.go), the single checkpoint image was overwritten in
// place. Crash point 76 of this trace lands inside the SECOND checkpoint
// image write (the record pass writes checkpoint images at ops 58, 76,
// 85 and 133, each followed by its sync and, after that, the write of its
// confirmation byte): with one slot the only redo base tears (CRC fails)
// after the previous checkpoint truncated the log records it covered, and
// committed blobs vanish. Op 77, the sync right after that image write, is the point
// between the second and third image writes where the same loss shows.
// With the one-slot layout restored on a copy, point 76 loses committed
// key "k00" under the ordered tear and point 77 under the scramble tear;
// the other mode of each point stays pinned as well.
// Unconditionally-replayed refcount decrement double-free: apply-time
// ledger decrements were originally logged under txn id 0 and replayed
// unconditionally. Crash point 47 of this dedup trace syncs a
// transaction's commit record (op 43), writes its extents (ops 44-46) and
// logs the decrement of its deferred frees against a shared extent (op
// 47), then tears the transaction's own extent writes — recovery marks it
// failed and reverts its tuple to the old state still referencing the
// shared extent, yet the decrement replayed anyway: two surviving
// references, ledger count one, one free away from recycling an extent
// under a live blob. Decrements now carry the staging transaction's id and
// replay under the same committed-and-validated rule as increments. With
// RecRefDelta batches replayed unconditionally on a copy, point 47 (and
// op 48, the sync after it, and no other point of the trace) fails
// recovery under the scramble tear ("referenced by 2 tuples but ledger
// replayed only 1"); at the earlier I/O schedule the same window was
// point 116 ("3 tuples but ... only 2").
//
// Points 74, 75 and 116 pinned these bugs at the earlier I/O schedule.
// They no longer land on the writes named above, but they stay pinned as
// ordinary schedules that must keep passing.
var regressionSchedules = []struct {
	s     Schedule
	dedup bool
}{
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 74, Mode: storage.TearOrdered}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 74, Mode: storage.TearScramble}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 75, Mode: storage.TearOrdered}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 75, Mode: storage.TearScramble}, false},
	{Schedule{TraceSeed: 8940310146990858404, CrashOp: 116, Mode: storage.TearScramble}, true},
	{Schedule{TraceSeed: 8940310146990858404, CrashOp: 116, Mode: storage.TearOrdered}, true},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 76, Mode: storage.TearOrdered}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 76, Mode: storage.TearScramble}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 77, Mode: storage.TearOrdered}, false},
	{Schedule{TraceSeed: 7338701143958340983, CrashOp: 77, Mode: storage.TearScramble}, false},
	{Schedule{TraceSeed: 8940310146990858404, CrashOp: 47, Mode: storage.TearScramble}, true},
	{Schedule{TraceSeed: 8940310146990858404, CrashOp: 47, Mode: storage.TearOrdered}, true},
}

func TestRegressionSchedules(t *testing.T) {
	for _, p := range recordPins {
		t.Run(fmt.Sprintf("record-pass trace-seed=%d dedup=%v", p.seed, p.dedup), func(t *testing.T) {
			cfg := DefaultConfig(1)
			cfg.Dedup = p.dedup
			res, err := cfg.RunSchedule(Schedule{TraceSeed: p.seed, CrashOp: -1, Mode: storage.TearOrdered}, nil)
			if err != nil {
				t.Fatalf("record pass failed: %v", err)
			}
			ops, hash := res.Ops[0], res.OpHashes[0][res.Ops[0]]
			if ops != p.ops || hash != p.hash {
				t.Fatalf("record pass drifted to %d ops, final op hash %#x (pinned %d ops, %#x): the I/O schedule changed, "+
					"so the crash points in regressionSchedules may no longer land on the writes their comments name. "+
					"Re-derive each point from the new record pass (for the checkpoint pins, the op indices of the checkpoint image writes), "+
					"re-check that each still reproduces its bug on a copy with the fix reverted, then update the points, their comments and this pin",
					ops, hash, p.ops, p.hash)
			}
		})
	}
	for _, rs := range regressionSchedules {
		t.Run(fmt.Sprintf("%v dedup=%v", rs.s, rs.dedup), func(t *testing.T) {
			cfg := DefaultConfig(1)
			cfg.Dedup = rs.dedup
			if _, err := cfg.RunSchedule(rs.s, nil); err != nil {
				t.Fatalf("pinned schedule regressed: %v", err)
			}
		})
	}
}
