package crashsim

// Failover schedules: a primary engine on a fault-armed device is
// log-shipped to a read replica (repl.Replica over an in-process
// EngineSource) while the trace runs; the primary crashes at a sampled
// mutating-op index under a tear mode, the replica is promoted, and the
// promoted image is verified against the reference model.
//
// The contract checked is the one the client can observe: the replica's
// applied LSN (the bounded-staleness horizon served in
// X-Replica-Applied-LSN). Every acknowledged commit batch whose durable
// horizon is at or below the replica's applied LSN at the crash must be
// present byte-identical in the promoted image — no acknowledged commit
// at or below the replicated horizon is lost. Batches above the horizon
// were never replicated and may be present or absent per key (a pull may
// have been mid-apply when the primary died); the model stages those
// two-outcome, exactly like an in-flight commit in the single-engine
// simulation. The promoted engine must also accept new writes.
//
// Determinism: pulls fire at fixed batch boundaries (every PullEvery
// acknowledged batches), and replica-driven reads of the primary go
// through the primary's pool with seeded eviction, so the primary's
// mutating-op stream — the crash-point space and the op-hash chain — is
// identical between the record pass and every armed replay.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"blobdb/internal/core"
	"blobdb/internal/crashsim/refmodel"
	"blobdb/internal/repl"
	"blobdb/internal/storage"
)

// FailoverConfig parameterizes a failover exploration run.
type FailoverConfig struct {
	Config
	// PullEvery is the replica's pull cadence in acknowledged commit
	// batches (default 1). Exploration varies it per trace to cover both
	// tight tailing and a long staleness tail.
	PullEvery int
}

// DefaultFailoverConfig returns the failover exploration parameters used
// by the short CI job and the nightly sweep's per-shard unit.
func DefaultFailoverConfig(seed int64) FailoverConfig {
	return FailoverConfig{Config: Config{
		Seed:   seed,
		Traces: 3,
		Steps:  25,
		Points: 16,
		Modes:  []storage.TearMode{storage.TearOrdered, storage.TearScramble},
	}}
}

// FailoverSchedule identifies one deterministic failover schedule.
type FailoverSchedule struct {
	TraceSeed int64
	CrashOp   int // primary mutating-op index to crash at; -1 crashes after the whole trace
	Mode      storage.TearMode
	PullEvery int
}

func (s FailoverSchedule) String() string {
	return fmt.Sprintf("trace-seed=%d crashpoint=%d tear=%s pull-every=%d",
		s.TraceSeed, s.CrashOp, s.Mode, s.pullEvery())
}

func (s FailoverSchedule) pullEvery() int {
	if s.PullEvery < 1 {
		return 1
	}
	return s.PullEvery
}

// FailoverResult reports a completed failover schedule.
type FailoverResult struct {
	Ops        int      // primary mutating device ops (crash-point space)
	OpHashes   []uint64 // record passes: rolling op hash after each op
	Horizon    uint64   // replica applied LSN at the crash — the client-observed staleness horizon
	Acked      int      // commit batches acknowledged before the crash
	Replicated int      // acked batches at or below the horizon (exactly verified)
	Resyncs    uint64   // snapshot resyncs the replica took (checkpoint truncation raced the tail)
}

// batchOp is one key's outcome in an acknowledged commit batch.
type batchOp struct {
	key     string
	content []byte
	del     bool
}

// ackedBatch is one acknowledged (committed, synced) batch and the
// primary's durable WAL horizon right after it.
type ackedBatch struct {
	horizon uint64
	ops     []batchOp
}

// RunFailoverSchedule executes one failover schedule end to end: run the
// trace on a fault-armed primary with a replica tailing it, crash the
// primary, promote the replica, and verify the promoted image against
// the reference model at the replicated horizon. wantHashes, when
// non-nil, is checked against the primary device's op-hash chain to
// prove the replay followed the recorded I/O schedule.
func (c FailoverConfig) RunFailoverSchedule(s FailoverSchedule, wantHashes []uint64) (*FailoverResult, error) {
	ops := genTrace(s.TraceSeed, c.Steps, false)
	inner := storage.NewMemDevice(simPageSize, simDevPages, nil)
	fd, err := storage.NewFaultDevice(inner, storage.FaultConfig{
		Seed:    tearSeed(Schedule{TraceSeed: s.TraceSeed, CrashOp: s.CrashOp, Mode: s.Mode}),
		CrashOp: s.CrashOp,
		Mode:    s.Mode,
		Record:  wantHashes == nil,
	})
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: c.Config, sched: Schedule{TraceSeed: s.TraceSeed, CrashOp: s.CrashOp, Mode: s.Mode},
		fd: fd, model: refmodel.New()}
	r.db, err = core.New(fd, c.dbOptions()...)
	if err != nil {
		return nil, fmt.Errorf("open primary: %w", err)
	}
	seedEviction(r.db, s.TraceSeed)
	if _, err := r.db.CreateRelation(relName); err != nil {
		return nil, err
	}

	// The replica runs on its own, never-faulted device: the failure under
	// test is the primary's, and the promoted image must survive it.
	rdb, err := core.New(storage.NewMemDevice(simPageSize, simDevPages, nil), c.dbOptions()...)
	if err != nil {
		return nil, fmt.Errorf("open replica: %w", err)
	}
	seedEviction(rdb, s.TraceSeed+1)
	rep := repl.NewReplica(rdb, repl.NewEngineSource(r.db))

	ctx := context.Background()
	var acked []ackedBatch
	r.afterBatch = func(keys []string) error {
		b := ackedBatch{horizon: r.db.WAL().DurableLSN()}
		for _, k := range keys {
			if v, ok := r.model.Committed(k); ok {
				b.ops = append(b.ops, batchOp{key: k, content: append([]byte(nil), v...)})
			} else {
				b.ops = append(b.ops, batchOp{key: k, del: true})
			}
		}
		acked = append(acked, b)
		if len(acked)%s.pullEvery() == 0 {
			// The pull reads the primary's WAL and blob pages: a crash can
			// fire mid-pull, leaving the replica an exact per-commit prefix.
			if _, err := rep.Sync(ctx); err != nil {
				return r.noteCrash(err)
			}
		}
		return nil
	}

	for i, op := range ops {
		if r.crashed {
			break
		}
		if err := r.exec(op); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.kind, err)
		}
	}
	if !r.crashed {
		// Record pass (or a crash point past the trace): catch the replica
		// fully up, then crash — the horizon covers every acked batch and
		// verification is exact end to end.
		if _, err := rep.Sync(ctx); err != nil {
			return nil, fmt.Errorf("final sync: %w", err)
		}
		fd.CrashNow()
	}
	r.db.ReleaseCommits()
	_ = r.db.CloseCommitter()

	res := &FailoverResult{Ops: fd.Ops(), OpHashes: fd.OpHashes(), Resyncs: rep.Resyncs()}
	if wantHashes != nil {
		n := fd.Ops()
		if n >= len(wantHashes) || fd.OpHash() != wantHashes[n] {
			return nil, fmt.Errorf("nondeterministic replay: op hash after %d ops diverged from the recorded trace", n)
		}
	}

	// Failover: promote at the client-observed horizon and verify.
	res.Horizon = rep.AppliedLSN()
	pdb := rep.Promote()
	defer pdb.CloseCommitter()
	res.Acked = len(acked)
	model := refmodel.New()
	for _, b := range acked {
		if b.horizon <= res.Horizon {
			// At or below the horizon: the contract demands these, exactly.
			for _, op := range b.ops {
				if op.del {
					model.Delete(op.key)
				} else {
					model.Commit(op.key, op.content)
				}
			}
			res.Replicated++
		} else {
			// Above the horizon: never acknowledged as replicated. A pull
			// may have been mid-apply at the crash, so per key the promoted
			// image may hold either side — staged, like an in-flight commit.
			for _, op := range b.ops {
				if op.del {
					model.StageDelete(op.key)
				} else {
					model.StagePut(op.key, op.content)
				}
			}
		}
	}
	snap, _, err := snapshot(pdb)
	if err != nil {
		return res, fmt.Errorf("snapshot promoted replica: %w", err)
	}
	if err := model.Verify(snap); err != nil {
		return res, fmt.Errorf("promoted image violates the replicated-horizon contract (horizon %d, %d/%d batches replicated): %w",
			res.Horizon, res.Replicated, res.Acked, err)
	}
	if err := probeWrite(pdb); err != nil {
		return res, fmt.Errorf("promoted engine rejected writes: %w", err)
	}
	return res, nil
}

// probeWrite checks that a promoted engine accepts and serves new writes.
func probeWrite(db *core.DB) error {
	const key, val = "failover-probe", "post-promotion write"
	// An early crash can promote a replica that never replayed anything —
	// a legal (empty) image whose relation the new primary creates itself.
	if _, err := db.Relation(relName); err != nil {
		if _, cerr := db.CreateRelation(relName); cerr != nil && !errors.Is(cerr, core.ErrRelationExists) {
			return cerr
		}
	}
	tx := db.Begin(nil)
	w, err := tx.CreateBlob(nil, relName, []byte(key))
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := w.Write([]byte(val)); err != nil {
		w.Abort()
		tx.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	rtx := db.Begin(nil)
	defer rtx.Commit()
	got, err := rtx.ReadBlobBytes(relName, []byte(key))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, []byte(val)) {
		return fmt.Errorf("probe read back %q, want %q", got, val)
	}
	return nil
}

// FailoverFailure is one failover schedule whose promoted image violated
// the replicated-horizon contract.
type FailoverFailure struct {
	Schedule FailoverSchedule
	Err      error
}

// Replay returns a one-line `go test` invocation that re-runs exactly
// this schedule.
func (f FailoverFailure) Replay() string {
	var b strings.Builder
	fmt.Fprintf(&b, "go test ./internal/crashsim -run TestReplayFailoverSchedule -trace-seed=%d -crashpoint=%d -tear=%s -pull-every=%d",
		f.Schedule.TraceSeed, f.Schedule.CrashOp, f.Schedule.Mode, f.Schedule.pullEvery())
	return b.String()
}

func (f FailoverFailure) String() string {
	return fmt.Sprintf("%v\n  replay: %s\n  error: %v", f.Schedule, f.Replay(), f.Err)
}

// FailoverStats summarizes a failover exploration run.
type FailoverStats struct {
	Traces     int
	Schedules  int
	Failures   int
	Replicated int // acked batches exactly verified at or below the horizon, across schedules
	StaleTail  int // schedules where the crash lost unreplicated batches above the horizon (the allowed tail)
}

// FailoverExplore samples the failover schedule space: for every trace a
// record pass measures the crash-point space and proves the fully-synced
// end state replicates exactly, then armed replays crash the primary at
// sampled points under every tear mode and verify each promoted image.
// The pull cadence varies per trace so both tight tailing and long
// staleness tails are explored.
func FailoverExplore(cfg FailoverConfig) (FailoverStats, []FailoverFailure) {
	if len(cfg.Modes) == 0 {
		cfg.Modes = []storage.TearMode{storage.TearOrdered, storage.TearScramble}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	var stats FailoverStats
	var failures []FailoverFailure
	const maxFailures = 20

	for ti := 0; ti < cfg.Traces; ti++ {
		traceSeed := master.Int63()
		stats.Traces++
		pullEvery := cfg.PullEvery
		if pullEvery < 1 {
			pullEvery = 1 + ti%3 // cadences 1..3 across traces
		}

		rec := FailoverSchedule{TraceSeed: traceSeed, CrashOp: -1, Mode: cfg.Modes[0], PullEvery: pullEvery}
		recRes, err := cfg.RunFailoverSchedule(rec, nil)
		stats.Schedules++
		if err != nil {
			failures = append(failures, FailoverFailure{Schedule: rec, Err: err})
			stats.Failures++
			logf("trace %d: failover record pass FAILED: %v", ti, err)
			continue
		}
		stats.Replicated += recRes.Replicated
		logf("trace %d: seed=%d ops=%d batches=%d pull-every=%d", ti, traceSeed, recRes.Ops, recRes.Acked, pullEvery)

		points := samplePoints(master, recRes.Ops, cfg.Points)
		for _, mode := range cfg.Modes {
			for _, k := range points {
				s := FailoverSchedule{TraceSeed: traceSeed, CrashOp: k, Mode: mode, PullEvery: pullEvery}
				res, err := cfg.RunFailoverSchedule(s, recRes.OpHashes)
				if err != nil {
					if len(failures) < maxFailures {
						failures = append(failures, FailoverFailure{Schedule: s, Err: err})
					}
					stats.Failures++
					logf("FAIL %v: %v", s, err)
				} else {
					stats.Replicated += res.Replicated
					if res.Replicated < res.Acked {
						stats.StaleTail++
					}
				}
				stats.Schedules++
			}
		}
	}
	return stats, failures
}
