// Command crashsim explores deterministic crash schedules against the
// single-flush commit protocol and verifies every recovered image against
// the reference model (internal/crashsim/refmodel).
//
// Usage:
//
//	crashsim                                   # short sweep, both tear modes
//	crashsim -traces 50 -points 200            # nightly-sized sweep
//	crashsim -seed 7 -smallpool                # flushes contend with eviction
//	crashsim -dedup                            # dedup/relocation-heavy traces (refcount ledger)
//	crashsim -trace-seed N -crashpoint K       # replay one schedule
//	crashsim -topology -shards 3               # one-shard-crash topology schedules
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
		points    = flag.Int("points", 0, "crash points sampled per trace and tear mode (default: the short CI budget)")
		tear      = flag.String("tear", "", "restrict to one tear mode (ordered|scramble); default explores both")
		smallPool = flag.Bool("smallpool", false, "shrink the buffer pool so flushes contend with eviction")
		dedupMode = flag.Bool("dedup", false, "generate dedup/relocation-heavy traces (dup-put, dup-put-abort, relocate families) exercising the refcount ledger")
		quiet     = flag.Bool("q", false, "suppress per-trace progress output")

		traceSeed = flag.Int64("trace-seed", 0, "replay: trace seed of one schedule")
		crashOp   = flag.Int("crashpoint", -2, "replay: mutating-op index to crash at (-1: end of trace)")

		topology   = flag.Bool("topology", false, "explore sharded-topology schedules: crash one shard's device, verify survivor isolation, recovery, and reshard safety")
		shards     = flag.Int("shards", 0, "topology: ring members at trace start (default 3)")
		crashShard = flag.Int("topo-crash-shard", 0, "topology replay: shard whose device the crash point arms")
		rebalance  = flag.Bool("topo-rebalance", false, "topology replay: reshard into a new shard after the trace")

		failover  = flag.Bool("failover", false, "explore failover schedules: crash a replicated primary, promote the replica, verify no acknowledged commit at or below the replicated LSN horizon is lost")
		pullEvery = flag.Int("pull-every", 0, "failover: replica pull cadence in commit batches (0: vary 1..3 per trace; replay: the cadence the failure printed)")
	)
	flag.Parse()

	if *topology {
		runTopology(*seed, *shards, *traces, *steps, *points, *tear, *quiet,
			*traceSeed, *crashOp, *crashShard, *rebalance)
		return
	}
	if *failover {
		runFailover(*seed, *traces, *steps, *points, *tear, *quiet,
			*traceSeed, *crashOp, *pullEvery)
		return
	}

	cfg := crashsim.DefaultConfig(*seed)
	if *dedupMode {
		cfg = crashsim.DefaultDedupConfig(*seed)
	}
	cfg.SmallPool = *smallPool
	if *traces > 0 {
		cfg.Traces = *traces
	}
	if *steps > 0 {
		cfg.Steps = *steps
	}
	if *points > 0 {
		cfg.Points = *points
	}
	if *tear != "" {
		mode, err := storage.ParseTearMode(*tear)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashsim: %v\n", err)
			os.Exit(2)
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
		s := crashsim.Schedule{TraceSeed: *traceSeed, CrashOp: *crashOp, Mode: mode}
		res, err := cfg.RunSchedule(s, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %v: %v\n", s, err)
			os.Exit(1)
		}
		fmt.Printf("PASS %v (%d device ops, recovery %+v)\n", s, res.Ops, *res.Report)
		return
	}

	stats, failures := crashsim.Explore(cfg)
	fmt.Printf("explored %d schedules across %d traces (seed %d)\n", stats.Schedules, stats.Traces, *seed)
	if stats.Failures == 0 {
		fmt.Println("all schedules recovered within the reference model")
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

// runFailover explores (or replays) primary-crash failover schedules: a
// read replica tails the primary, the primary's device crashes at
// sampled points, the replica is promoted, and the promoted image must
// hold every acknowledged commit at or below the replicated LSN horizon.
func runFailover(seed int64, traces, steps, points int, tear string, quiet bool,
	traceSeed int64, crashOp, pullEvery int) {
	cfg := crashsim.DefaultFailoverConfig(seed)
	if traces > 0 {
		cfg.Traces = traces
	}
	if steps > 0 {
		cfg.Steps = steps
	}
	if points > 0 {
		cfg.Points = points
	}
	if pullEvery > 0 {
		cfg.PullEvery = pullEvery
	}
	if tear != "" {
		mode, err := storage.ParseTearMode(tear)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashsim: %v\n", err)
			os.Exit(2)
		}
		cfg.Modes = []storage.TearMode{mode}
	}
	if !quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	// Replay mode: one failover schedule, identified exactly as
	// FailoverFailure.Replay prints it.
	if crashOp != -2 || traceSeed != 0 {
		mode := storage.TearScramble
		if len(cfg.Modes) == 1 {
			mode = cfg.Modes[0]
		}
		s := crashsim.FailoverSchedule{TraceSeed: traceSeed, CrashOp: crashOp, Mode: mode, PullEvery: pullEvery}
		res, err := cfg.RunFailoverSchedule(s, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %v: %v\n", s, err)
			os.Exit(1)
		}
		fmt.Printf("PASS %v (%d device ops, horizon %d, %d/%d batches replicated, %d resyncs)\n",
			s, res.Ops, res.Horizon, res.Replicated, res.Acked, res.Resyncs)
		return
	}

	stats, failures := crashsim.FailoverExplore(cfg)
	fmt.Printf("explored %d failover schedules across %d traces (seed %d): %d batches verified at/below horizon, %d schedules with a stale tail\n",
		stats.Schedules, stats.Traces, seed, stats.Replicated, stats.StaleTail)
	if stats.Failures == 0 {
		fmt.Println("all promoted images held the replicated-horizon contract")
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

// runTopology explores (or replays) sharded-topology crash schedules:
// one shard's device crashes mid-schedule, survivors must keep serving,
// the crashed shard must recover refmodel-clean, and a mid-rebalance
// crash must lose no blob on source or destination.
func runTopology(seed int64, shards, traces, steps, points int, tear string, quiet bool,
	traceSeed int64, crashOp, crashShard int, rebalance bool) {
	cfg := crashsim.DefaultTopoConfig(seed)
	if shards > 0 {
		cfg.Shards = shards
	}
	if traces > 0 {
		cfg.Traces = traces
	}
	if steps > 0 {
		cfg.Steps = steps
	}
	if points > 0 {
		cfg.Points = points
	}
	if tear != "" {
		mode, err := storage.ParseTearMode(tear)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashsim: %v\n", err)
			os.Exit(2)
		}
		cfg.Modes = []storage.TearMode{mode}
	}
	if !quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	// Replay mode: one topology schedule, identified exactly as
	// TopoFailure.Replay prints it.
	if crashOp != -2 || traceSeed != 0 {
		mode := storage.TearScramble
		if len(cfg.Modes) == 1 {
			mode = cfg.Modes[0]
		}
		s := crashsim.TopoSchedule{
			TraceSeed:  traceSeed,
			Shards:     cfg.Shards,
			CrashShard: crashShard,
			CrashOp:    crashOp,
			Rebalance:  rebalance,
			Mode:       mode,
		}
		res, err := cfg.RunTopoSchedule(s, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %v: %v\n", s, err)
			os.Exit(1)
		}
		fmt.Printf("PASS %v (device ops %v, served %d, shed %d, recovery %+v)\n",
			s, res.Ops, res.Served, res.Shed, res.Report)
		return
	}

	stats, failures := crashsim.TopoExplore(cfg)
	fmt.Printf("explored %d topology schedules across %d traces (seed %d): %d survivor ops, %d shed ops\n",
		stats.Schedules, stats.Traces, seed, stats.SurvivorOps, stats.ShedOps)
	if stats.Failures == 0 {
		fmt.Println("all topology schedules held isolation, recovery, and reshard safety")
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
