package crashsim

import (
	"fmt"
	"math/rand"
	"sort"

	"blobdb/internal/storage"
)

// Failure is one schedule whose outcome violated the recovery, isolation,
// reshard-safety or replicated-horizon contract. Replay() prints the
// exact invocation that reproduces it.
type Failure struct {
	Schedule Schedule
	Shards   int
	Small    bool
	Dedup    bool
	Err      error
}

// Replay returns a one-line `go test` invocation that re-runs exactly
// this schedule.
func (f Failure) Replay() string {
	s := f.Schedule
	line := fmt.Sprintf("go test ./internal/crashsim -run TestReplaySchedule -trace-seed=%d -crashpoint=%d -tear=%s",
		s.TraceSeed, s.CrashOp, s.Mode)
	if f.Small {
		line += " -smallpool"
	}
	if f.Dedup {
		line += " -dedup"
	}
	if f.Shards > 1 {
		line += fmt.Sprintf(" -topo-shards=%d -topo-crash-shard=%d", f.Shards, s.CrashShard)
	}
	if s.Rebalance {
		line += " -topo-rebalance"
	}
	if s.PullEvery > 0 {
		line += fmt.Sprintf(" -pull-every=%d", s.PullEvery)
	}
	return line
}

func (f Failure) String() string {
	return fmt.Sprintf("%v\n  replay: %s\n  error: %v", f.Schedule, f.Replay(), f.Err)
}

// Stats summarizes an exploration run.
type Stats struct {
	Traces      int
	Schedules   int // distinct schedules executed, record passes included
	Failures    int
	SurvivorOps int // ops served by surviving shards after a crash, summed
	ShedOps     int // ops fast-rejected for the crashed shard, summed
	Replicated  int // acked batches exactly verified at or below a replica's horizon, summed
	StaleTail   int // schedules where the crash lost unreplicated batches above the horizon (the allowed tail)
}

// Explore samples the crash-schedule space. For every trace it runs a
// record pass (no mid-schedule crash) to measure each device's
// mutating-op count and op-hash chain — and, with Rebalance, a second
// record pass that reshards after the trace — then replays the trace
// with a crash armed at sampled points under every tear mode: on every
// initial shard during the trace, and on shard 0 and the destination
// inside the reshard window. Violations are collected (up to a cap)
// rather than aborting the sweep.
func Explore(cfg Config) (Stats, []Failure) {
	if len(cfg.Modes) == 0 {
		cfg.Modes = []storage.TearMode{storage.TearOrdered, storage.TearScramble}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	shards := cfg.shards()
	master := rand.New(rand.NewSource(cfg.Seed))
	var stats Stats
	var failures []Failure
	const maxFailures = 20
	run := func(s Schedule, want [][]uint64) *Result {
		res, err := cfg.RunSchedule(s, want)
		stats.Schedules++
		if res != nil {
			stats.SurvivorOps += res.Served
			stats.ShedOps += res.Shed
		}
		if err != nil {
			if len(failures) < maxFailures {
				failures = append(failures, Failure{Schedule: s, Shards: shards, Small: cfg.SmallPool, Dedup: cfg.Dedup, Err: err})
			}
			stats.Failures++
			logf("FAIL %v: %v", s, err)
			return nil
		}
		stats.Replicated += res.Replicated
		if res.Replicated < res.Acked {
			stats.StaleTail++
		}
		return res
	}

	for ti := 0; ti < cfg.Traces; ti++ {
		traceSeed := master.Int63()
		stats.Traces++
		pullEvery := cfg.PullEvery
		if pullEvery < 0 {
			pullEvery = 1 + ti%3 // cadences 1..3 across traces
		}
		for _, reb := range []bool{false, true} {
			if reb && !cfg.Rebalance {
				break
			}
			rec := run(Schedule{TraceSeed: traceSeed, CrashOp: -1, Mode: cfg.Modes[0], Rebalance: reb, PullEvery: pullEvery}, nil)
			if rec == nil {
				continue
			}
			logf("trace %d: seed=%d rebalance=%v pull-every=%d ops=%v batches=%d", ti, traceSeed, reb, pullEvery, rec.Ops, rec.Acked)

			// Steady schedules crash each initial shard during the trace;
			// reshard schedules crash a source and the destination inside
			// the reshard window (points past the trace phase).
			candidates := []int{0, shards}
			if !reb {
				candidates = candidates[:0]
				for i := 0; i < shards; i++ {
					candidates = append(candidates, i)
				}
			}
			for _, cshard := range candidates {
				lo, hi := 0, rec.TraceOps[cshard]
				if reb {
					lo, hi = rec.TraceOps[cshard], rec.Ops[cshard]
				}
				points := samplePoints(master, hi-lo, cfg.Points)
				for _, mode := range cfg.Modes {
					for _, k := range points {
						run(Schedule{TraceSeed: traceSeed, CrashShard: cshard, CrashOp: lo + k, Mode: mode, Rebalance: reb, PullEvery: pullEvery}, rec.OpHashes)
					}
				}
			}
		}
	}
	return stats, failures
}

// samplePoints picks up to max distinct crash points in [0, ops). When the
// space is small enough it is enumerated exhaustively.
func samplePoints(rng *rand.Rand, ops, max int) []int {
	if ops <= 0 {
		return nil
	}
	if max <= 0 || ops <= max {
		out := make([]int, ops)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := map[int]bool{}
	for len(seen) < max {
		seen[rng.Intn(ops)] = true
	}
	out := make([]int, 0, max)
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
