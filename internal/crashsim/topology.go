// Topology crash schedules: the single-engine schedules of crashsim.go
// prove one commit pipeline recovers; these prove the sharded serving
// topology (internal/shard) degrades and recovers correctly when ONE
// shard's device crashes mid-schedule. Three claims are pinned:
//
//  1. Isolation — after the crash, every operation routed to a surviving
//     shard keeps succeeding, and operations routed to the crashed shard
//     fail fast with ErrShardDown (the router's 503).
//  2. Recovery — the crashed shard's frozen image recovers to a state its
//     per-shard reference model accepts (§III-C, same contract as the
//     single-engine schedules), and the surviving shards' live state
//     matches their models exactly.
//  3. Reshard safety — a crash at any point of a live Rebalance (source
//     or destination device) loses no blob: every committed key is still
//     readable, byte-identical, on its pre-reshard owner or on the
//     destination.
//
// Determinism carries over from the single-engine harness: the trace is a
// pure function of its seed, routing is SHA-256 consistent hashing, ops
// are driven sequentially, and Rebalance touches rows in sorted order —
// so each shard's device-op sequence replays bit-identically and the
// recorded op-hash chains verify it.
package crashsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"blobdb/internal/blob"
	"blobdb/internal/core"
	"blobdb/internal/crashsim/refmodel"
	"blobdb/internal/shard"
	"blobdb/internal/storage"
)

// TopoConfig parameterizes a topology exploration run.
type TopoConfig struct {
	Seed   int64              // master seed: derives trace seeds and crash-point samples
	Shards int                // ring members at trace start (>= 2)
	Traces int                // op traces to generate
	Steps  int                // ops per trace
	Points int                // crash points sampled per (trace, crashed shard, mode)
	Modes  []storage.TearMode // tear models to explore
	Logf   func(format string, args ...any)
}

// DefaultTopoConfig returns the topology exploration budget the CI shard
// job runs: 3-shard clusters, both tear modes, crash points sampled both
// in steady serving and inside a live reshard.
func DefaultTopoConfig(seed int64) TopoConfig {
	return TopoConfig{
		Seed:   seed,
		Shards: 3,
		Traces: 2,
		Steps:  30,
		Points: 4,
		Modes:  []storage.TearMode{storage.TearOrdered, storage.TearScramble},
	}
}

func (c TopoConfig) normalized() TopoConfig {
	d := DefaultTopoConfig(c.Seed)
	if c.Shards < 2 {
		c.Shards = d.Shards
	}
	if c.Traces <= 0 {
		c.Traces = d.Traces
	}
	if c.Steps <= 0 {
		c.Steps = d.Steps
	}
	if c.Points <= 0 {
		c.Points = d.Points
	}
	if len(c.Modes) == 0 {
		c.Modes = d.Modes
	}
	return c
}

func (c TopoConfig) dbOptions() []core.Option {
	return []core.Option{
		core.WithLogPages(simLogPages),
		core.WithCkptPages(simCkptPages),
		core.WithPoolPages(poolNormal),
		// Inline queue for deterministic op-hash replay; see Config.dbOptions.
		core.WithInlineQueue(true),
	}
}

// TopoSchedule identifies one deterministic topology crash schedule.
type TopoSchedule struct {
	TraceSeed  int64
	Shards     int  // ring members at trace start
	CrashShard int  // shard whose device the crash point arms
	CrashOp    int  // mutating-op index on that device; -1: end of schedule
	Rebalance  bool // add shard `Shards` after the trace and reshard into it
	Mode       storage.TearMode
}

// dstID is the rebalance destination's shard id (registered after the
// initial members, so it is always the next index).
func (s TopoSchedule) dstID() int { return s.Shards }

func (s TopoSchedule) String() string {
	reb := ""
	if s.Rebalance {
		reb = " rebalance"
	}
	return fmt.Sprintf("trace-seed=%d shards=%d crash-shard=%d crashpoint=%d tear=%s%s",
		s.TraceSeed, s.Shards, s.CrashShard, s.CrashOp, s.Mode, reb)
}

// topoTearSeed derives one device's tear rng seed: distinct per shard and
// per crash point, deterministic for the schedule.
func topoTearSeed(s TopoSchedule, shardID int) int64 {
	h := uint64(s.TraceSeed) ^ uint64(s.CrashOp+1)*0x9e3779b97f4a7c15
	h ^= (uint64(shardID) + 1) * 0xbf58476d1ce4e5b9
	return int64(h)
}

// TopoResult reports a completed topology schedule.
type TopoResult struct {
	Ops      []int      // mutating device ops per shard (crash-point space)
	TraceOps []int      // device ops per shard at the end of the trace phase
	OpHashes [][]uint64 // record passes: per-shard rolling op-hash chains
	Served   int        // survivor ops completed after the crash fired
	Shed     int        // ops routed to the downed shard and rejected fast
	Report   *core.RecoveryReport
}

// topoRunner drives one topology schedule.
type topoRunner struct {
	cfg     TopoConfig
	sched   TopoSchedule
	ctx     context.Context
	cluster *shard.Cluster
	fds     []*storage.FaultDevice // index == shard id (incl. rebalance dst)
	engines []*core.DB             // index == shard id; dst is nil until created
	models  []*refmodel.Model      // per-shard reference models
	crashed bool
	served  int
	shed    int
}

// RunTopoSchedule executes one topology schedule end to end: build the
// cluster, drive the routed trace (continuing on the survivors after the
// armed device crashes), optionally run the live reshard, then freeze,
// recover, and verify. wantHashes, when non-nil (replay of a recorded
// schedule), is checked against each device's op-hash chain.
func (c TopoConfig) RunTopoSchedule(s TopoSchedule, wantHashes [][]uint64) (*TopoResult, error) {
	c = c.normalized()
	if s.Shards < 2 {
		return nil, fmt.Errorf("crashsim: topology schedules need >= 2 shards, got %d", s.Shards)
	}
	nDev := s.Shards
	if s.Rebalance {
		nDev++
	}
	if s.CrashShard < 0 || s.CrashShard >= nDev {
		return nil, fmt.Errorf("crashsim: crash shard %d out of range [0,%d)", s.CrashShard, nDev)
	}
	record := wantHashes == nil

	r := &topoRunner{
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
			Seed:    topoTearSeed(s, i),
			CrashOp: crashOp,
			Mode:    s.Mode,
			Record:  record,
		})
		if err != nil {
			return nil, err
		}
		r.fds[i] = fd
		r.models[i] = refmodel.New()
	}
	dbs := make([]*core.DB, s.Shards)
	for i := range dbs {
		db, err := core.New(r.fds[i], c.dbOptions()...)
		if err != nil {
			return nil, fmt.Errorf("shard %d open: %w", i, err)
		}
		seedEviction(db, s.TraceSeed+int64(i))
		dbs[i] = db
		r.engines[i] = db
	}
	// The per-shard gate never queues: ops are driven one at a time, so
	// the router's slow path (a wall-clock timer) is never taken and the
	// schedule stays deterministic.
	r.cluster = shard.New(dbs, shard.Options{MaxInFlightPerShard: 4})
	if err := r.cluster.CreateRelation(relName); err != nil {
		return nil, err
	}
	ringBefore := r.cluster.Ring()

	ops := genTrace(s.TraceSeed, c.Steps, false)
	for i, op := range ops {
		if err := r.exec(op); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.kind, err)
		}
	}

	res := &TopoResult{
		Ops:      make([]int, nDev),
		TraceOps: make([]int, nDev),
		OpHashes: make([][]uint64, nDev),
	}
	for i, fd := range r.fds {
		res.TraceOps[i] = fd.Ops()
	}

	// Reshard phase: bring up the destination engine, register it, and
	// stream the moving slice over. A crash anywhere in here (destination
	// format, relation sync, copy, cutover, cleanup) is an expected
	// schedule outcome; anything else is a real failure.
	rebalanced := false
	if s.Rebalance && !r.crashed {
		rebalanced = true
		if err := r.runRebalance(); err != nil {
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
		if err := r.verifyReplayHashes(wantHashes); err != nil {
			return res, err
		}
	}

	rep, err := r.verify(record, rebalanced, ringBefore)
	res.Report = rep
	if err != nil {
		return res, err
	}
	return res, nil
}

// runRebalance executes the reshard phase, classifying crash-induced
// failures as expected schedule outcomes.
func (r *topoRunner) runRebalance() error {
	s := r.sched
	dst := s.dstID()
	dstDB, err := core.New(r.fds[dst], r.cfg.dbOptions()...)
	if err != nil {
		// The destination died during initial format: nothing was ever
		// copied, the sources still own every byte.
		return r.noteCrash(dst, fmt.Errorf("dst open: %w", err))
	}
	seedEviction(dstDB, s.TraceSeed+int64(dst))
	r.engines[dst] = dstDB
	id, err := r.cluster.AddShard(dstDB)
	if err != nil {
		return r.noteCrash(dst, err)
	}
	if err := r.cluster.Rebalance(r.ctx, id); err != nil {
		// The error may originate on the source (reads, cleanup deletes)
		// or the destination (copy commits); only the armed device can
		// have crashed.
		return r.noteCrash(s.CrashShard, err)
	}
	return nil
}

// verifyReplayHashes proves the replay followed the recorded I/O
// schedule on every device. The crashed device is checked exactly like
// the single-engine harness; survivors must match the full recorded
// chain (steady schedules — their op streams are unaffected by the
// crash) or a prefix of it (reshard schedules — an aborted Rebalance
// legitimately stops short of the recorded cleanup).
func (r *topoRunner) verifyReplayHashes(want [][]uint64) error {
	for i, fd := range r.fds {
		// The recorded chain holds the hash after each op, seeded with an
		// initial entry: w[n] is the chain after n ops.
		n := fd.Ops()
		w := want[i]
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
// ambiguity.
func (r *topoRunner) verify(record, rebalanced bool, ringBefore *shard.Ring) (*core.RecoveryReport, error) {
	s := r.sched
	snaps := make([]map[string][]byte, len(r.fds))

	if record {
		for _, fd := range r.fds {
			fd.CrashNow()
		}
	} else {
		// Survivors first, while their engines are still live.
		for i, db := range r.engines {
			if i == s.CrashShard || db == nil {
				snaps[i] = map[string][]byte{}
				continue
			}
			snap, _, err := snapshot(db)
			if err != nil {
				return nil, fmt.Errorf("crashsim: snapshot live shard %d: %w", i, err)
			}
			snaps[i] = snap
		}
		if !r.fds[s.CrashShard].Crashed() {
			r.fds[s.CrashShard].CrashNow()
		}
	}

	// Quiesce every engine's background goroutines. Commit failures after
	// a crash are expected; the committers must still shut down cleanly.
	for _, db := range r.engines {
		if db == nil {
			continue
		}
		db.ReleaseCommits()
		_ = db.CloseCommitter()
	}

	var report *core.RecoveryReport
	if record {
		for i, fd := range r.fds {
			rep, snap, err := recoverAndCheck(fd.CrashImage(), r.cfg.dbOptions())
			if err != nil {
				return rep, fmt.Errorf("shard %d: %w", i, err)
			}
			snaps[i] = snap
			if i == s.CrashShard {
				report = rep
			}
		}
	} else if r.engines[s.CrashShard] == nil {
		// The destination crashed before its engine ever formatted: the
		// image is not a recoverable database and holds no blobs.
		snaps[s.CrashShard] = map[string][]byte{}
	} else {
		rep, snap, err := recoverAndCheck(r.fds[s.CrashShard].CrashImage(), r.cfg.dbOptions())
		if err != nil {
			return rep, fmt.Errorf("crashed shard %d: %w", s.CrashShard, err)
		}
		snaps[s.CrashShard] = snap
		report = rep
	}

	if rebalanced {
		return report, r.verifyReshard(snaps, record, ringBefore)
	}
	for i, m := range r.models {
		if i >= s.Shards {
			continue // dst exists only in reshard schedules
		}
		if err := m.Verify(snaps[i]); err != nil {
			return report, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return report, nil
}

// verifyReshard checks the no-lost-blob invariant of a (possibly
// crash-aborted) live reshard: every committed key is byte-identical on
// its pre-reshard owner or on the destination, every copy anywhere is
// byte-identical, keys never appear off their owner/destination pair,
// and nothing deleted resurrects. Completed reshards (record passes) are
// held to the stronger post-cleanup contract: each key lives exactly on
// its NEW owner.
func (r *topoRunner) verifyReshard(snaps []map[string][]byte, completed bool, ringBefore *shard.Ring) error {
	s := r.sched
	dst := s.dstID()
	ringAfter := ringBefore.Add(dst)

	// The global committed state: the trace phase ended with every key
	// promoted (each commit was followed by a device sync), so the
	// per-shard models are exact.
	committed := map[string][]byte{}
	for i := 0; i < s.Shards; i++ {
		for _, key := range r.models[i].Keys() {
			if content, ok := r.models[i].Committed(key); ok {
				committed[key] = content
			}
		}
	}

	for i, snap := range snaps {
		keys := make([]string, 0, len(snap))
		for key := range snap {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
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
			if completed && i != ringAfter.Shard(relName, []byte(key)) {
				return fmt.Errorf("crashsim: completed reshard left key %q on shard %d, new owner is %d", key, i, ringAfter.Shard(relName, []byte(key)))
			}
		}
	}

	lost := make([]string, 0, len(committed))
	for key := range committed {
		lost = append(lost, key)
	}
	sort.Strings(lost)
	for _, key := range lost {
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

// noteCrash classifies an engine error on shard id: the armed device
// crashing is the schedule doing its job — fence the shard and keep the
// survivors serving. Anything else is a real failure.
func (r *topoRunner) noteCrash(id int, err error) error {
	if err == nil {
		return nil
	}
	if id == r.sched.CrashShard && r.fds[id].Crashed() {
		r.crashed = true
		r.cluster.MarkDown(id)
		return nil
	}
	return err
}

// route admits one single-key op through the consistent-hash router. A
// fast rejection for the fenced crashed shard is the expected degraded
// mode (ok=false, no error); any other admission failure is real.
func (r *topoRunner) route(key string) (sh *shard.Shard, release func(), ok bool, err error) {
	sh, release, err = r.cluster.Acquire(r.ctx, relName, []byte(key))
	if err != nil {
		if errors.Is(err, shard.ErrShardDown) && sh != nil && sh.ID() == r.sched.CrashShard && r.fds[sh.ID()].Crashed() {
			r.shed++
			return nil, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("route %q: %w", key, err)
	}
	return sh, release, true, nil
}

func (r *topoRunner) exec(op traceOp) error {
	switch op.kind {
	case opPut, opBatchPut:
		return r.puts(op.subs, false)
	case opPutAbort:
		return r.puts(op.subs, true)
	case opAppend:
		return r.append(op.subs[0])
	case opDelete:
		return r.delete(op.subs[0])
	case opUpdateClone:
		return r.update(op.subs[0], blob.UpdateClone)
	case opUpdateInPlace:
		return r.update(op.subs[0], blob.UpdateDelta)
	case opCheckpoint:
		return r.checkpoint()
	case opRead:
		return r.read(op.subs[0])
	default:
		return fmt.Errorf("crashsim: unknown op kind %v", op.kind)
	}
}

// puts routes a (possibly multi-key) put batch: subs are grouped by
// owning shard and each group commits as one group-commit batch on its
// shard, shards in ascending id order so the device schedules replay.
func (r *topoRunner) puts(subs []subOp, abort bool) error {
	groups := map[int][]subOp{}
	ids := make([]int, 0, len(subs))
	for _, sub := range subs {
		id := r.cluster.Ring().Shard(relName, []byte(sub.key))
		if _, seen := groups[id]; !seen {
			ids = append(ids, id)
		}
		groups[id] = append(groups[id], sub)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := r.putGroup(groups[id], abort); err != nil {
			return err
		}
	}
	return nil
}

func (r *topoRunner) putGroup(subs []subOp, abort bool) error {
	sh, release, ok, err := r.route(subs[0].key)
	if !ok || err != nil {
		return err
	}
	defer release()
	id := sh.ID()
	m := r.models[id]
	var txns []*core.Txn
	var keys []string
	for _, sub := range subs {
		tx := sh.DB().Begin(nil)
		w, err := tx.CreateBlob(nil, relName, []byte(sub.key))
		if err != nil {
			tx.Abort()
			abortAll(txns)
			return r.noteCrash(id, err)
		}
		if !abort {
			m.StagePut(sub.key, sub.full)
		}
		err = stream(w, sub.write)
		if err == nil {
			if abort {
				w.Abort()
			} else {
				err = w.Close()
			}
		} else {
			w.Abort()
		}
		if err != nil {
			tx.Abort()
			abortAll(txns)
			return r.noteCrash(id, err)
		}
		if abort {
			if err := tx.Abort(); err != nil {
				return err
			}
			continue
		}
		txns = append(txns, tx)
		keys = append(keys, sub.key)
	}
	if abort {
		return nil
	}
	return r.commitOn(sh, txns, keys)
}

func (r *topoRunner) append(sub subOp) error {
	sh, release, ok, err := r.route(sub.key)
	if !ok || err != nil {
		return err
	}
	defer release()
	id := sh.ID()
	tx := sh.DB().Begin(nil)
	w, err := tx.AppendBlob(nil, relName, []byte(sub.key))
	if err != nil {
		tx.Abort()
		return r.noteCrash(id, err)
	}
	r.models[id].StagePut(sub.key, sub.full)
	if err := stream(w, sub.write); err != nil {
		w.Abort()
		tx.Abort()
		return r.noteCrash(id, err)
	}
	if err := w.Close(); err != nil {
		tx.Abort()
		return r.noteCrash(id, err)
	}
	return r.commitOn(sh, []*core.Txn{tx}, []string{sub.key})
}

func (r *topoRunner) delete(sub subOp) error {
	sh, release, ok, err := r.route(sub.key)
	if !ok || err != nil {
		return err
	}
	defer release()
	id := sh.ID()
	tx := sh.DB().Begin(nil)
	r.models[id].StageDelete(sub.key)
	if err := tx.DeleteBlob(relName, []byte(sub.key)); err != nil {
		tx.Abort()
		return r.noteCrash(id, err)
	}
	return r.commitOn(sh, []*core.Txn{tx}, []string{sub.key})
}

func (r *topoRunner) update(sub subOp, scheme blob.UpdateScheme) error {
	sh, release, ok, err := r.route(sub.key)
	if !ok || err != nil {
		return err
	}
	defer release()
	id := sh.ID()
	tx := sh.DB().Begin(nil)
	if scheme == blob.UpdateDelta {
		r.models[id].StageUpdateInPlace(sub.key, sub.full)
	} else {
		r.models[id].StagePut(sub.key, sub.full)
	}
	if err := tx.UpdateBlob(relName, []byte(sub.key), sub.off, sub.patch, scheme); err != nil {
		tx.Abort()
		return r.noteCrash(id, err)
	}
	return r.commitOn(sh, []*core.Txn{tx}, []string{sub.key})
}

func (r *topoRunner) read(sub subOp) error {
	sh, release, ok, err := r.route(sub.key)
	if !ok || err != nil {
		return err
	}
	defer release()
	id := sh.ID()
	tx := sh.DB().Begin(nil)
	defer tx.Commit()
	got, err := tx.ReadBlobBytes(relName, []byte(sub.key))
	if err != nil {
		return r.noteCrash(id, err)
	}
	want, ok2 := r.models[id].Committed(sub.key)
	if !ok2 {
		return fmt.Errorf("crashsim: routed read of %q on shard %d: model has no committed value", sub.key, id)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("crashsim: routed read of %q on shard %d returned %d bytes, want %d", sub.key, id, len(got), len(want))
	}
	if r.crashed {
		r.served++
	}
	return nil
}

// checkpoint runs a WAL checkpoint on every live shard, ascending.
func (r *topoRunner) checkpoint() error {
	for _, sh := range r.cluster.Shards() {
		if sh.Down() {
			continue
		}
		if err := sh.DB().WAL().Checkpoint(nil); err != nil {
			if err := r.noteCrash(sh.ID(), err); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitOn commits the transactions as one deterministic group-commit
// batch on sh, then syncs that shard's device and promotes the keys in
// its model — the same ambiguity window as the single-engine harness.
func (r *topoRunner) commitOn(sh *shard.Shard, txns []*core.Txn, keys []string) error {
	id := sh.ID()
	db := sh.DB()
	db.HoldCommits()
	acks := make([]<-chan error, 0, len(txns))
	for _, tx := range txns {
		ch, err := tx.CommitAsync()
		if err != nil {
			db.ReleaseCommits()
			return r.noteCrash(id, err)
		}
		acks = append(acks, ch)
	}
	db.ReleaseCommits()
	for _, ch := range acks {
		if err := <-ch; err != nil {
			return r.noteCrash(id, err)
		}
	}
	//blobvet:allow harness-issued sync on the fault device models the OS flush the schedule crashes around; not engine durability ordering
	if err := r.fds[id].Sync(nil); err != nil {
		return r.noteCrash(id, err)
	}
	for _, k := range keys {
		r.models[id].Promote(k)
	}
	if r.crashed {
		r.served++
	}
	return nil
}

// TopoStats summarizes a topology exploration run.
type TopoStats struct {
	ExploreStats
	SurvivorOps int // ops served by surviving shards after a crash, summed
	ShedOps     int // ops fast-rejected for the crashed shard, summed
}

// TopoFailure is one topology schedule whose outcome violated the
// isolation, recovery, or reshard-safety contract.
type TopoFailure struct {
	Schedule TopoSchedule
	Err      error
}

// Replay returns a one-line `go test` invocation that re-runs exactly
// this schedule.
func (f TopoFailure) Replay() string {
	var b strings.Builder
	fmt.Fprintf(&b, "go test ./internal/crashsim -run TestReplayTopoSchedule -topo-shards=%d -topo-crash-shard=%d -trace-seed=%d -crashpoint=%d -tear=%s",
		f.Schedule.Shards, f.Schedule.CrashShard, f.Schedule.TraceSeed, f.Schedule.CrashOp, f.Schedule.Mode)
	if f.Schedule.Rebalance {
		b.WriteString(" -topo-rebalance")
	}
	return b.String()
}

func (f TopoFailure) String() string {
	return fmt.Sprintf("%v\n  replay: %s\n  error: %v", f.Schedule, f.Replay(), f.Err)
}

// TopoExplore samples the topology crash-schedule space. For every trace
// it runs two record passes — steady serving, and serving followed by a
// live reshard into a new shard — then replays each with a crash armed on
// sampled devices at sampled points: every initial shard during the
// steady phase, and a source plus the destination inside the reshard
// window. Violations are collected (up to a cap) rather than aborting.
func TopoExplore(cfg TopoConfig) (TopoStats, []TopoFailure) {
	cfg = cfg.normalized()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	var stats TopoStats
	var failures []TopoFailure
	const maxFailures = 20

	fail := func(s TopoSchedule, err error) {
		if len(failures) < maxFailures {
			failures = append(failures, TopoFailure{Schedule: s, Err: err})
		}
		stats.Failures++
		logf("FAIL %v: %v", s, err)
	}

	for ti := 0; ti < cfg.Traces; ti++ {
		traceSeed := master.Int63()
		stats.Traces++
		for _, reb := range []bool{false, true} {
			rec := TopoSchedule{TraceSeed: traceSeed, Shards: cfg.Shards, CrashShard: 0, CrashOp: -1, Rebalance: reb, Mode: cfg.Modes[0]}
			recRes, err := cfg.RunTopoSchedule(rec, nil)
			stats.Schedules++
			if err != nil {
				fail(rec, err)
				continue
			}
			logf("topo trace %d: seed=%d rebalance=%v ops=%v", ti, traceSeed, reb, recRes.Ops)

			// Steady schedules crash each initial shard during the trace;
			// reshard schedules crash a source and the destination inside
			// the reshard window (points past the trace phase).
			var candidates []int
			if reb {
				candidates = []int{0, cfg.Shards}
			} else {
				for i := 0; i < cfg.Shards; i++ {
					candidates = append(candidates, i)
				}
			}
			for _, cshard := range candidates {
				lo, hi := 0, recRes.TraceOps[cshard]
				if reb {
					lo, hi = recRes.TraceOps[cshard], recRes.Ops[cshard]
				}
				points := samplePoints(master, hi-lo, cfg.Points)
				for _, mode := range cfg.Modes {
					for _, k := range points {
						s := TopoSchedule{TraceSeed: traceSeed, Shards: cfg.Shards, CrashShard: cshard, CrashOp: lo + k, Rebalance: reb, Mode: mode}
						res, err := cfg.RunTopoSchedule(s, recRes.OpHashes)
						stats.Schedules++
						if res != nil {
							stats.SurvivorOps += res.Served
							stats.ShedOps += res.Shed
						}
						if err != nil {
							fail(s, err)
						}
					}
				}
			}
		}
	}
	return stats, failures
}
