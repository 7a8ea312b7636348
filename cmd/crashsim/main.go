// Command crashsim explores deterministic crash schedules against the
// group-commit pipeline — one shard or a sharded cluster, optionally
// resharding or failing over to a replica — and verifies every outcome
// against the reference model (internal/crashsim/refmodel).
//
// Usage:
//
//	crashsim                                   # short sweep, both tear modes
//	crashsim -traces 50 -points 200            # nightly-sized sweep
//	crashsim -seed 7 -smallpool                # flushes contend with eviction
//	crashsim -dedup                            # dedup/relocation-heavy traces (refcount ledger)
//	crashsim -trace-seed N -crashpoint K       # replay one schedule
//	crashsim -topology -shards 3               # one-shard-crash topology schedules, steady and resharding
//	crashsim -topology -dedup                  # dedup traces over a resharding cluster
//	crashsim -topology -trace-seed N -crashpoint K -topo-crash-shard S [-topo-rebalance]
//	crashsim -failover                         # crash the primary, promote the replica
//	crashsim -failover -trace-seed N -crashpoint K -pull-every P
//
// Every failure prints a one-line replay invocation; the process exits
// non-zero if any schedule fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"blobdb/internal/crashsim"
	"blobdb/internal/storage"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "master seed deriving trace seeds and crash-point samples")
		traces    = flag.Int("traces", 0, "op traces to explore (default: the short CI budget)")
		steps     = flag.Int("steps", 0, "ops per trace (default: the short CI budget)")
		points    = flag.Int("points", 0, "crash points sampled per trace, crashed shard and tear mode (default: the short CI budget)")
		tear      = flag.String("tear", "", "restrict to one tear mode (ordered|scramble); default explores both")
		smallPool = flag.Bool("smallpool", false, "shrink the buffer pool so flushes contend with eviction")
		dedupMode = flag.Bool("dedup", false, "generate dedup/relocation-heavy traces (dup-put, dup-put-abort, relocate families) exercising the refcount ledger")
		quiet     = flag.Bool("q", false, "suppress per-trace progress output")

		traceSeed = flag.Int64("trace-seed", 0, "replay: trace seed of one schedule")
		crashOp   = flag.Int("crashpoint", -2, "replay: mutating-op index to crash at (-1: end of trace)")

		topology   = flag.Bool("topology", false, "explore sharded-topology schedules: crash one shard's device, verify survivor isolation, recovery, and reshard safety")
		shards     = flag.Int("shards", 0, "ring members at trace start (default: 3 with -topology, else 1)")
		crashShard = flag.Int("topo-crash-shard", 0, "replay: shard whose device the crash point arms")
		rebalance  = flag.Bool("topo-rebalance", false, "replay: reshard into a new shard after the trace")

		failover  = flag.Bool("failover", false, "explore failover schedules: crash a replicated primary, promote the replica, verify no acknowledged commit at or below the replicated LSN horizon is lost")
		pullEvery = flag.Int("pull-every", 0, "failover: replica pull cadence in commit batches (0: vary 1..3 per trace; replay: the cadence the failure printed)")
	)
	flag.Parse()

	cfg := crashsim.DefaultConfig(*seed)
	switch {
	case *topology && *failover:
		fatal(2, "crashsim: -topology reshards, which does not run with the -failover replica")
	case *topology:
		cfg = crashsim.DefaultTopoConfig(*seed)
	case *failover:
		cfg = crashsim.DefaultFailoverConfig(*seed)
		if *pullEvery > 0 {
			cfg.PullEvery = *pullEvery
		}
	}
	cfg.Dedup, cfg.SmallPool = *dedupMode, *smallPool
	for _, o := range []struct{ flag, field *int }{{shards, &cfg.Shards}, {traces, &cfg.Traces}, {steps, &cfg.Steps}, {points, &cfg.Points}} {
		if *o.flag > 0 {
			*o.field = *o.flag
		}
	}
	if *tear != "" {
		mode, err := storage.ParseTearMode(*tear)
		if err != nil {
			fatal(2, "crashsim: %v", err)
		}
		cfg.Modes = []storage.TearMode{mode}
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	// Replay mode: one schedule, identified exactly as failures print it.
	if *crashOp != -2 || *traceSeed != 0 {
		mode := storage.TearScramble
		if len(cfg.Modes) == 1 {
			mode = cfg.Modes[0]
		}
		s := crashsim.Schedule{TraceSeed: *traceSeed, CrashShard: *crashShard, CrashOp: *crashOp, Mode: mode, Rebalance: *rebalance}
		if *failover {
			s.PullEvery = max(*pullEvery, 1)
		}
		res, err := cfg.RunSchedule(s, nil)
		if err != nil {
			fatal(1, "FAIL %v: %v", s, err)
		}
		fmt.Printf("PASS %v (device ops %v, served %d, shed %d, horizon %d, %d/%d batches replicated, %d resyncs, recovery %+v)\n",
			s, res.Ops, res.Served, res.Shed, res.Horizon, res.Replicated, res.Acked, res.Resyncs, res.Report)
		return
	}

	stats, failures := crashsim.Explore(cfg)
	fmt.Printf("explored %d schedules across %d traces (seed %d): %d survivor ops, %d shed ops, %d batches verified at/below horizon, %d schedules with a stale tail\n",
		stats.Schedules, stats.Traces, *seed, stats.SurvivorOps, stats.ShedOps, stats.Replicated, stats.StaleTail)
	fmt.Println(stats.RecoveryLine())
	if line := stats.TransferLine(); line != "" {
		fmt.Println(line)
	}
	if stats.Failures == 0 {
		fmt.Println("all schedules held recovery, isolation, reshard safety and the replicated horizon")
		return
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "FAIL %v\n", f)
	}
	if stats.Failures > len(failures) {
		fmt.Fprintf(os.Stderr, "...and %d more failures\n", stats.Failures-len(failures))
	}
	os.Exit(1)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
