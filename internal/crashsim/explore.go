package crashsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"blobdb/internal/storage"
)

// Failure is one schedule whose recovery violated the reference model.
// Replay() prints the exact invocation that reproduces it.
type Failure struct {
	Schedule Schedule
	Small    bool
	Dedup    bool
	Err      error
}

// Replay returns a one-line `go test` invocation that re-runs exactly
// this schedule.
func (f Failure) Replay() string {
	var b strings.Builder
	fmt.Fprintf(&b, "go test ./internal/crashsim -run TestReplaySchedule -trace-seed=%d -crashpoint=%d -tear=%s",
		f.Schedule.TraceSeed, f.Schedule.CrashOp, f.Schedule.Mode)
	if f.Small {
		b.WriteString(" -smallpool")
	}
	if f.Dedup {
		b.WriteString(" -dedup")
	}
	return b.String()
}

func (f Failure) String() string {
	return fmt.Sprintf("%v\n  replay: %s\n  error: %v", f.Schedule, f.Replay(), f.Err)
}

// ExploreStats summarizes an exploration run.
type ExploreStats struct {
	Traces    int
	Schedules int // distinct (trace, crash point, mode) schedules executed
	Failures  int
}

// Explore samples the crash-schedule space: for every generated trace it
// first runs a record pass (no mid-trace crash) to measure the
// mutating-op count and the op-hash chain, then replays the trace with a
// crash armed at sampled points under every configured tear mode. Each
// replay's recovery is verified against the reference model; violations
// are collected (up to a cap) rather than aborting the sweep.
func Explore(cfg Config) (ExploreStats, []Failure) {
	if len(cfg.Modes) == 0 {
		cfg.Modes = []storage.TearMode{storage.TearOrdered, storage.TearScramble}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	var stats ExploreStats
	var failures []Failure
	const maxFailures = 20

	for ti := 0; ti < cfg.Traces; ti++ {
		traceSeed := master.Int63()
		stats.Traces++

		// Record pass: no mid-trace crash; measures the crash-point space
		// and verifies the fully-synced end state recovers exactly.
		rec := Schedule{TraceSeed: traceSeed, CrashOp: -1, Mode: cfg.Modes[0]}
		recRes, err := cfg.RunSchedule(rec, nil)
		stats.Schedules++
		if err != nil {
			failures = append(failures, Failure{Schedule: rec, Small: cfg.SmallPool, Dedup: cfg.Dedup, Err: err})
			stats.Failures++
			logf("trace %d: record pass FAILED: %v", ti, err)
			continue
		}
		logf("trace %d: seed=%d ops=%d", ti, traceSeed, recRes.Ops)

		points := samplePoints(master, recRes.Ops, cfg.Points)
		for _, mode := range cfg.Modes {
			for _, k := range points {
				s := Schedule{TraceSeed: traceSeed, CrashOp: k, Mode: mode}
				if _, err := cfg.RunSchedule(s, recRes.OpHashes); err != nil {
					if len(failures) < maxFailures {
						failures = append(failures, Failure{Schedule: s, Small: cfg.SmallPool, Dedup: cfg.Dedup, Err: err})
					}
					stats.Failures++
					logf("FAIL %v: %v", s, err)
				}
				stats.Schedules++
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
