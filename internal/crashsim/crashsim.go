// Package crashsim drives the real commit pipeline — group-commit
// batching, the WAL sync boundary, the background extent flush of the
// streaming blob writer, eviction under pool pressure, live resharding and
// log-shipping replication — through a deterministic, enumerable space of
// crash schedules and checks every outcome against the reference model
// (refmodel).
//
// There is one world: a shard.Cluster of Config.Shards engines, each on
// its own storage.FaultDevice, driven by one trace (trace.go) through the
// consistent-hash router. The crash families are parameters of it:
//
//   - base: Shards 1, the single-engine world, run as a one-shard cluster
//     the way shard.Single runs the single-engine blobserver;
//   - dedup: sharing-heavy traces (duplicate puts, aborted duplicates,
//     relocation rounds) that stress the refcount ledger;
//   - topology: Shards >= 2, one shard's device crashes and the survivors
//     keep serving;
//   - reshard: Rebalance, a new shard joins after the trace and a live
//     Rebalance streams its slice over, crashed at a source or at the
//     destination;
//   - failover: PullEvery, a log-shipping replica tails the crashed shard
//     and is promoted in its place.
//
// A schedule is (trace seed, crashed shard, crash-point index, tear mode,
// rebalance, pull cadence). The trace seed fully determines the operation
// sequence, and the crash point selects the mutating device operation at
// which the armed FaultDevice freezes its durable image. Every schedule
// checks three claims:
//
//  1. Recovery: the crashed shard's frozen image recovers to a state its
//     reference model accepts (§III-C: committed blobs byte-identical,
//     uncommitted and torn blobs absent or rolled back, allocator and
//     refcount ledger consistent). With a replica, the promoted image
//     instead holds every acknowledged batch at or below the replicated
//     LSN horizon and accepts new writes.
//  2. Isolation: after the crash, ops routed to a surviving shard keep
//     succeeding, ops routed to the crashed shard fail fast with
//     shard.ErrShardDown, and the survivors' live state matches their
//     models exactly.
//  3. Reshard safety: a crash anywhere in a live Rebalance loses no blob;
//     every committed key is byte-identical on its pre-reshard owner or
//     on the destination.
//
// Determinism: routing is SHA-256 consistent hashing, ops run one at a
// time, every engine's eviction is seeded, replica pulls fire at fixed
// batch boundaries and Rebalance touches rows in sorted order, so every
// device's op sequence replays bit-identically and the recorded op-hash
// chains prove it. Any violation replays from Failure.Replay.
package crashsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"blobdb/internal/blob"
	"blobdb/internal/buffer"
	"blobdb/internal/core"
	"blobdb/internal/crashsim/refmodel"
	"blobdb/internal/repl"
	"blobdb/internal/shard"
	"blobdb/internal/storage"
)

// Device geometry, chosen small so hundreds of schedules run per second:
// 8 MB device, 1 MB WAL, 512 KB checkpoint area, and a buffer pool small
// enough that long traces evict.
const (
	simPageSize  = storage.DefaultPageSize
	simDevPages  = 2048
	simLogPages  = 256
	simCkptPages = 128
	// poolNormal leaves headroom; poolSmall forces eviction during
	// flushes, exercising the prevent_evict window.
	poolNormal = 192
	poolSmall  = 64
)

// relName is the single relation every trace operates on.
const relName = "r"

// writeChunk is the streaming writer's chunk size. Deliberately not a
// page multiple so extent boundaries land mid-chunk.
const writeChunk = 1536

// Config parameterizes an exploration run. The zero value is not usable;
// start from DefaultConfig or one of the family presets.
type Config struct {
	Seed   int64              // master seed: derives trace seeds and crash-point samples
	Traces int                // op traces to generate
	Steps  int                // ops per trace
	Points int                // crash points sampled per (trace, crashed shard, mode)
	Modes  []storage.TearMode // tear models to explore (empty: both)
	// Shards is the number of ring members at trace start; 0 and 1 are
	// the single-engine world.
	Shards int
	// Rebalance adds reshard schedules to every trace: a new shard joins
	// after the trace and a live Rebalance streams its slice over.
	Rebalance bool
	// PullEvery attaches a replica to the crashed shard that pulls after
	// every PullEvery acknowledged commit batches; the crash promotes it.
	// 0 runs no replica; negative varies the cadence 1..3 across traces.
	PullEvery int
	SmallPool bool                             // shrink the buffer pool to force eviction during flushes
	Dedup     bool                             // generate dedup/relocation-heavy traces (put-dup, relocate families)
	Logf      func(format string, args ...any) // optional progress output
}

// DefaultConfig returns the base world's short CI budget: one shard,
// both tear modes, enough sampled points to clear 500 schedules.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:   seed,
		Traces: 6,
		Steps:  25,
		Points: 42,
		Modes:  []storage.TearMode{storage.TearOrdered, storage.TearScramble},
		Shards: 1,
	}
}

// DefaultTopoConfig returns the topology budget: 3-shard clusters, crash
// points sampled both in steady serving and inside a live reshard.
func DefaultTopoConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.Shards, c.Rebalance = 3, true
	c.Traces, c.Steps, c.Points = 2, 30, 4
	return c
}

// DefaultFailoverConfig returns the failover budget: a replica tails the
// primary at a cadence that varies per trace.
func DefaultFailoverConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.Traces, c.Points, c.PullEvery = 3, 16, -1
	return c
}

func (c Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

func (c Config) dbOptions() []core.Option {
	pool := poolNormal
	if c.SmallPool {
		pool = poolSmall
	}
	return []core.Option{
		core.WithLogPages(simLogPages),
		core.WithCkptPages(simCkptPages),
		core.WithPoolPages(pool),
		// A transaction's WAL writer flushes at the smaller of its buffer
		// and one segment's payload, and a segment is a slice of the 1 MB
		// log, so a log-sized buffer flushes exactly where the 10 MB
		// default does. The default would have every engine the sweep
		// opens allocate 10 MB buffers faster than the collector returns
		// them.
		core.WithWALBufferCap(simLogPages * simPageSize),
		// The committer waits for each batch's extent flush to land before
		// it forms the next batch, so the FaultDevice observes every
		// operation in one order and the op-hash replay stays
		// deterministic.
		core.WithInlineQueue(true),
	}
}

// Schedule identifies one deterministic crash schedule.
type Schedule struct {
	TraceSeed  int64
	CrashShard int // shard whose device the crash point arms; the reshard destination is shard Config.Shards
	CrashOp    int // mutating-op index on that device; -1 crashes at the end of the schedule
	Mode       storage.TearMode
	Rebalance  bool // reshard into a new shard after the trace
	PullEvery  int  // replica pull cadence in the crashed shard's acknowledged batches; 0: no replica
}

func (s Schedule) String() string {
	str := fmt.Sprintf("trace-seed=%d crashpoint=%d tear=%s", s.TraceSeed, s.CrashOp, s.Mode)
	if s.CrashShard != 0 {
		str += fmt.Sprintf(" crash-shard=%d", s.CrashShard)
	}
	if s.Rebalance {
		str += " rebalance"
	}
	if s.PullEvery > 0 {
		str += fmt.Sprintf(" pull-every=%d", s.PullEvery)
	}
	return str
}

// tearSeed derives device i's tear rng seed: the crash point is mixed in
// so different crash points of one trace tear differently, and shard 0
// keeps the single-engine seed.
func tearSeed(s Schedule, i int) int64 {
	return int64(uint64(s.TraceSeed) ^ uint64(s.CrashOp+1)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9)
}

// Result reports a completed schedule.
type Result struct {
	Ops        []int                // mutating device ops per shard (crash-point space)
	TraceOps   []int                // device ops per shard at the end of the trace phase
	OpHashes   [][]uint64           // record passes: per-shard rolling op-hash chains
	Served     int                  // survivor ops completed after the crash fired
	Shed       int                  // ops routed to the crashed shard and rejected fast
	Horizon    uint64               // replica: applied LSN at the crash, the client-observed staleness horizon
	Acked      int                  // replica: commit batches acknowledged before the crash
	Replicated int                  // replica: acked batches at or below the horizon (exactly verified)
	Resyncs    uint64               // replica: snapshot resyncs (checkpoint truncation raced the tail)
	Transfers  core.TransferStats   // core.Install outcomes on every engine: reshard moves, replica applies
	Report     *core.RecoveryReport // the crashed shard's recovery; nil when a replica was promoted
	Recovered  int                  // images recovered and content-verified
	Trusted    int                  // Blob States those recoveries trusted as landed
	Hashed     int                  // Blob States those recoveries hashed
}

// runner executes one schedule.
type runner struct {
	cfg     Config
	sched   Schedule
	ctx     context.Context
	cluster *shard.Cluster
	fds     []*storage.FaultDevice // index == shard id, the reshard destination last
	engines []*core.DB             // index == shard id; the destination is nil until it opens
	models  []*refmodel.Model      // per-shard reference models
	replica *repl.Replica          // tails the crashed shard when sched.PullEvery > 0
	acked   []ackedBatch           // the crashed shard's acknowledged batches, for the horizon
	crashed bool
	served  int
	shed    int
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

// RunSchedule executes one schedule end to end: build the cluster, drive
// the routed trace (continuing on the survivors after the armed device
// crashes), optionally run the live reshard, then freeze, recover or
// promote, and verify. want, when non-nil (replay of a recorded
// schedule), is checked against each device's op-hash chain to prove the
// replay followed the recorded I/O schedule.
func (c Config) RunSchedule(s Schedule, want [][]uint64) (*Result, error) {
	shards := c.shards()
	nDev := shards
	if s.Rebalance {
		nDev++
	}
	if s.CrashShard < 0 || s.CrashShard >= nDev {
		return nil, fmt.Errorf("crashsim: crash shard %d out of range [0,%d)", s.CrashShard, nDev)
	}
	if s.Rebalance && s.PullEvery > 0 {
		return nil, errors.New("crashsim: reshard schedules do not run with a replica")
	}
	record := want == nil
	r := &runner{
		cfg:     c,
		sched:   s,
		ctx:     context.Background(),
		fds:     make([]*storage.FaultDevice, nDev),
		engines: make([]*core.DB, nDev),
		models:  make([]*refmodel.Model, nDev),
	}
	for i := range r.fds {
		crashOp := -1
		if i == s.CrashShard {
			crashOp = s.CrashOp
		}
		fd, err := storage.NewFaultDevice(storage.NewMemDevice(simPageSize, simDevPages, nil), storage.FaultConfig{
			Seed:    tearSeed(s, i),
			CrashOp: crashOp,
			Mode:    s.Mode,
			Record:  record,
		})
		if err != nil {
			return nil, err
		}
		r.fds[i], r.models[i] = fd, refmodel.New()
	}
	for i := 0; i < shards; i++ {
		if err := r.open(i); err != nil {
			return nil, fmt.Errorf("shard %d open: %w", i, err)
		}
	}
	// The per-shard gate never queues: ops are driven one at a time, so
	// the router's slow path (a wall-clock timer) is never taken.
	r.cluster = shard.New(r.engines[:shards], shard.Options{MaxInFlightPerShard: 4})
	if err := r.cluster.CreateRelation(relName); err != nil {
		return nil, err
	}
	if s.PullEvery > 0 {
		// The replica runs on its own, never-faulted device: the failure
		// under test is the primary's, and the promoted image must
		// survive it.
		rdb, err := core.New(storage.NewMemDevice(simPageSize, simDevPages, nil), c.dbOptions()...)
		if err != nil {
			return nil, fmt.Errorf("open replica: %w", err)
		}
		seedEviction(rdb, s.TraceSeed+int64(shards))
		r.replica = repl.NewReplica(rdb, repl.NewEngineSource(r.engines[s.CrashShard]))
		if err := r.cluster.AttachReplica(s.CrashShard, r.replica); err != nil {
			return nil, err
		}
	}
	ringBefore := r.cluster.Ring()

	for i, op := range genTrace(s.TraceSeed, c.Steps, c.Dedup) {
		if err := r.exec(op); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.kind, err)
		}
	}
	if r.replica != nil && !r.crashed {
		// Catch the replica fully up before the end-of-schedule crash:
		// the horizon then covers every acked batch and verification is
		// exact end to end.
		if _, err := r.replica.Sync(r.ctx); err != nil {
			return nil, fmt.Errorf("final sync: %w", err)
		}
	}
	res := &Result{Ops: make([]int, nDev), TraceOps: make([]int, nDev), OpHashes: make([][]uint64, nDev)}
	for i, fd := range r.fds {
		res.TraceOps[i] = fd.Ops()
	}

	// Reshard phase: a crash anywhere in here (destination format,
	// relation sync, copy, cutover, cleanup) is an expected outcome.
	rebalanced := s.Rebalance && !r.crashed
	if rebalanced {
		if err := r.rebalance(); err != nil {
			return nil, err
		}
	}

	for i, fd := range r.fds {
		res.Ops[i] = fd.Ops()
		if record {
			res.OpHashes[i] = fd.OpHashes()
		}
	}
	res.Served, res.Shed = r.served, r.shed
	if !record {
		if err := r.verifyReplayHashes(want); err != nil {
			return res, err
		}
	}
	return res, r.verify(res, record, rebalanced, ringBefore)
}

// open formats shard i's engine on its fault device.
func (r *runner) open(i int) error {
	db, err := core.New(r.fds[i], r.cfg.dbOptions()...)
	if err != nil {
		return err
	}
	seedEviction(db, r.sched.TraceSeed+int64(i))
	r.engines[i] = db
	return nil
}

// rebalance brings up the destination engine, registers it, and streams
// the moving slice over, classifying crash-induced failures as expected
// schedule outcomes.
func (r *runner) rebalance() error {
	dst := r.cfg.shards()
	if err := r.open(dst); err != nil {
		// The destination died during initial format: nothing was ever
		// copied, the sources still own every byte.
		return r.noteCrash(dst, fmt.Errorf("dst open: %w", err))
	}
	id, err := r.cluster.AddShard(r.engines[dst])
	if err != nil {
		return r.noteCrash(dst, err)
	}
	if err := r.cluster.Rebalance(r.ctx, id); err != nil {
		// The error may originate on a source (reads, cleanup deletes) or
		// on the destination (copy commits); only the armed device can
		// have crashed.
		return r.noteCrash(r.sched.CrashShard, err)
	}
	return nil
}

// verifyReplayHashes proves the replay followed the recorded I/O
// schedule on every device. The recorded chain holds the hash after each
// op, seeded with an initial entry: w[n] is the chain after n ops.
// Survivors must match the full recorded chain in steady schedules (their
// op streams are unaffected by the crash) and a prefix of it in reshard
// schedules (an aborted Rebalance stops short of the recorded cleanup).
func (r *runner) verifyReplayHashes(want [][]uint64) error {
	for i, fd := range r.fds {
		n, w := fd.Ops(), want[i]
		if n >= len(w) || fd.OpHash() != w[n] {
			return fmt.Errorf("nondeterministic replay: shard %d op hash after %d ops diverged from the recorded schedule (chain length %d)", i, n, len(w))
		}
		if i != r.sched.CrashShard && !r.sched.Rebalance && n != len(w)-1 {
			return fmt.Errorf("nondeterministic replay: surviving shard %d ran %d ops, recorded %d", i, n, len(w)-1)
		}
	}
	return nil
}

// verify freezes, recovers, and checks the end state.
//
// Record passes crash every device at the very end (everything promoted)
// and verify each recovered image exactly. Replay passes recover only the
// armed device's frozen image; survivors are snapshotted live — they
// never crashed, so their state must match their models with no
// ambiguity. With a replica, the crashed shard's replica is promoted in
// place of recovering its image.
func (r *runner) verify(res *Result, record, rebalanced bool, ringBefore *shard.Ring) error {
	s := r.sched
	snaps := make([]map[string][]byte, len(r.fds))
	if !record {
		// Survivors first, while their engines are still live.
		for i, db := range r.engines {
			if i == s.CrashShard || db == nil {
				snaps[i] = map[string][]byte{}
				continue
			}
			snap, _, err := snapshot(db)
			if err != nil {
				return fmt.Errorf("crashsim: snapshot live shard %d: %w", i, err)
			}
			snaps[i] = snap
		}
	}
	for i, fd := range r.fds {
		if record || i == s.CrashShard {
			fd.CrashNow()
		}
	}
	dbs := r.engines
	if r.replica != nil {
		dbs = append(dbs[:len(dbs):len(dbs)], r.replica.DB())
	}
	for _, db := range dbs {
		if db != nil {
			addTransfers(&res.Transfers, db.TransferStats())
		}
	}
	// Quiesce every engine's background goroutines. Commit failures after
	// a crash are expected; the committers must still shut down cleanly.
	for _, db := range r.engines {
		if db != nil {
			db.ReleaseCommits()
			_ = db.CloseCommitter()
		}
	}

	for i, fd := range r.fds {
		switch {
		case !record && i != s.CrashShard:
			continue
		case r.replica != nil && i == s.CrashShard:
			snap, err := r.promote(res)
			if err != nil {
				return err
			}
			snaps[i] = snap
		case r.engines[i] == nil:
			// The destination crashed before its engine ever formatted:
			// the image is not a recoverable database and holds no blobs.
			snaps[i] = map[string][]byte{}
		default:
			rep, snap, err := recoverAndCheck(fd.TakeCrashImage(nil), r.cfg.dbOptions())
			if i == s.CrashShard {
				res.Report = rep
			}
			if rep != nil {
				res.Recovered++
				res.Trusted += rep.TrustedBlobs
				res.Hashed += rep.HashedBlobs
			}
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			snaps[i] = snap
		}
	}

	if rebalanced {
		return r.verifyReshard(snaps, record, ringBefore)
	}
	for i := 0; i < r.cfg.shards(); i++ {
		if r.replica != nil && i == s.CrashShard {
			continue // judged against the replicated horizon by promote
		}
		if err := r.models[i].Verify(snaps[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// promote fails the crashed shard over to its replica and checks the
// replicated-horizon contract: every acknowledged batch at or below the
// replica's applied LSN at the crash is present byte-identical. Batches
// above it were never replicated and a pull may have been mid-apply at
// the crash, so per key the promoted image may hold either side — staged,
// like an in-flight commit. The promoted engine must accept new writes.
func (r *runner) promote(res *Result) (map[string][]byte, error) {
	res.Horizon, res.Resyncs, res.Acked = r.replica.AppliedLSN(), r.replica.Resyncs(), len(r.acked)
	pdb, err := r.cluster.PromoteReplica(r.sched.CrashShard)
	if err != nil {
		return nil, err
	}
	defer pdb.CloseCommitter()
	model := refmodel.New()
	for _, b := range r.acked {
		exact := b.horizon <= res.Horizon
		if exact {
			res.Replicated++
		}
		for _, op := range b.ops {
			switch {
			case exact && op.del:
				model.Delete(op.key)
			case exact:
				model.Commit(op.key, op.content)
			case op.del:
				model.StageDelete(op.key)
			default:
				model.StagePut(op.key, op.content)
			}
		}
	}
	snap, _, err := snapshot(pdb)
	if err != nil {
		return nil, fmt.Errorf("snapshot promoted replica: %w", err)
	}
	if err := model.Verify(snap); err != nil {
		return nil, fmt.Errorf("promoted image violates the replicated-horizon contract (horizon %d, %d/%d batches replicated): %w",
			res.Horizon, res.Replicated, res.Acked, err)
	}
	if err := probeWrite(pdb); err != nil {
		return nil, fmt.Errorf("promoted engine rejected writes: %w", err)
	}
	return snap, nil
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

// verifyReshard checks the no-lost-blob invariant of a (possibly
// crash-aborted) live reshard: every committed key is byte-identical on
// its pre-reshard owner or on the destination, every copy anywhere is
// byte-identical, keys never appear off their owner/destination pair,
// and nothing deleted resurrects. Completed reshards (record passes) are
// held to the stronger post-cleanup contract: each key lives exactly on
// its NEW owner.
func (r *runner) verifyReshard(snaps []map[string][]byte, completed bool, ringBefore *shard.Ring) error {
	dst := r.cfg.shards()
	ringAfter := ringBefore.Add(dst)

	// The global committed state: the trace phase ended with every key
	// promoted (each commit was followed by a device sync), so the
	// per-shard models are exact.
	committed := map[string][]byte{}
	for _, m := range r.models[:dst] {
		for _, key := range m.Keys() {
			if content, ok := m.Committed(key); ok {
				committed[key] = content
			}
		}
	}

	for i, snap := range snaps {
		for _, key := range sortedKeys(snap) {
			want, ok := committed[key]
			if !ok {
				return fmt.Errorf("crashsim: shard %d holds phantom key %q (%d bytes) after reshard crash", i, key, len(snap[key]))
			}
			if !bytes.Equal(snap[key], want) {
				return fmt.Errorf("crashsim: shard %d key %q recovered to %d bytes, want %d (reshard copy corrupt)", i, key, len(snap[key]), len(want))
			}
			owner := ringBefore.Shard(relName, []byte(key))
			if i != owner && i != dst {
				return fmt.Errorf("crashsim: key %q appeared on shard %d, owned by %d (dst %d)", key, i, owner, dst)
			}
			if next := ringAfter.Shard(relName, []byte(key)); completed && i != next {
				return fmt.Errorf("crashsim: completed reshard left key %q on shard %d, new owner is %d", key, i, next)
			}
		}
	}
	for _, key := range sortedKeys(committed) {
		owner := ringBefore.Shard(relName, []byte(key))
		if _, ok := snaps[owner][key]; ok {
			continue
		}
		if ringAfter.Shard(relName, []byte(key)) == dst {
			if _, ok := snaps[dst][key]; ok {
				continue
			}
		}
		return fmt.Errorf("crashsim: committed key %q (%d bytes) lost: absent on owner %d and destination %d", key, len(committed[key]), owner, dst)
	}
	return nil
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// addTransfers adds s's counts to sum.
func addTransfers(sum *core.TransferStats, s core.TransferStats) {
	for i, n := range s.Outcomes {
		sum.Outcomes[i] += n
	}
	sum.CopiedBytes += s.CopiedBytes
}

// seedEviction reseeds the pool's eviction sampling so pool decisions
// replay exactly for a given schedule.
func seedEviction(db *core.DB, seed int64) {
	db.Pool().(*buffer.VMPool).SetEvictionSeed(seed)
}

// recoverAndCheck recovers a device over a frozen crash image into a fresh
// engine, snapshots every surviving key, and enforces the allocator leak
// invariant: the rebuilt allocator's live pages must equal the pages
// owned by surviving blobs counted once per DISTINCT extent — with
// content-addressed dedup, several tuples may reference one sequence, and
// double-counting would mask exactly the double-free/leak bugs this
// harness exists to catch. The refcount ledger itself is cross-checked
// against a full recount (core.CheckLedger), and every surviving Blob
// State — trusted as landed or hashed at startup — must validate
// (core.DB.VerifyContent). The caller judges the snapshot against its
// reference model.
func recoverAndCheck(rdev *storage.MemDevice, opts []core.Option) (*core.RecoveryReport, map[string][]byte, error) {
	db, rep, err := core.RecoverDevice(rdev, nil, opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("crashsim: recovery failed on crash image: %w", err)
	}
	snap, states, err := snapshot(db)
	if err != nil {
		return rep, nil, fmt.Errorf("crashsim: snapshot recovered db: %w", err)
	}
	tiers := db.Allocator().Tiers()
	unique := map[storage.PID]uint64{} // pid -> pages, deduplicated
	for _, st := range states {
		for i, pid := range st.Extents {
			unique[pid] = tiers.Size(i)
		}
		if st.HasTail() {
			unique[st.Tail.PID] = st.Tail.Pages
		}
	}
	var want uint64
	for _, pages := range unique {
		want += pages
	}
	if got := db.Allocator().Stats().LivePages; got != want {
		return rep, snap, fmt.Errorf("crashsim: allocator LivePages=%d but surviving blobs own %d distinct pages (leak or double-free)", got, want)
	}
	if err := db.CheckLedger(); err != nil {
		return rep, snap, fmt.Errorf("crashsim: refcount ledger inconsistent after recovery: %w", err)
	}
	if err := db.VerifyContent(); err != nil {
		return rep, snap, fmt.Errorf("crashsim: recovered content does not validate (%d states trusted, %d hashed): %w", rep.TrustedBlobs, rep.HashedBlobs, err)
	}
	return rep, snap, nil
}

// snapshot extracts every key's full content from a database. A relation
// that does not exist is an empty snapshot (an early crash may precede
// its creation; the model decides whether data was allowed to vanish);
// any other scan or read error fails the schedule.
func snapshot(db *core.DB) (map[string][]byte, []*blob.State, error) {
	tx := db.Begin(nil)
	defer tx.Commit()
	type entry struct {
		key string
		st  *blob.State
	}
	var entries []entry
	err := tx.Scan(relName, nil, func(k, inline []byte, st *blob.State) bool {
		if st != nil {
			entries = append(entries, entry{string(k), st.Clone()})
		}
		return true
	})
	if errors.Is(err, core.ErrRelationNotFound) {
		return map[string][]byte{}, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("scan: %w", err)
	}
	snap := make(map[string][]byte, len(entries))
	states := make([]*blob.State, 0, len(entries))
	for _, e := range entries {
		content, err := tx.ReadBlobBytes(relName, []byte(e.key))
		if err != nil {
			return nil, nil, fmt.Errorf("read %q: %w", e.key, err)
		}
		snap[e.key] = content
		states = append(states, e.st)
	}
	return snap, states, nil
}
