package crashsim

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"blobdb/internal/blob"
	"blobdb/internal/core"
	"blobdb/internal/crashsim/refmodel"
	"blobdb/internal/shard"
)

// The world's ops: every trace op routes through the cluster to the
// shard owning its key, stages its possible outcomes in that shard's
// reference model, and commits as one group-commit batch followed by a
// device sync. Checkpoint and relocation rounds are per engine and run on
// every live shard in ascending id order.

func (r *runner) exec(op traceOp) error {
	switch op.kind {
	case opPut, opBatchPut, opPutDup:
		return r.puts(op.subs, false)
	case opPutAbort, opPutDupAbort:
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
		return r.eachLive(func(id int, db *core.DB) error {
			return r.noteCrash(id, db.WAL().Checkpoint(nil))
		})
	case opRead:
		return r.read(op.subs[0])
	case opRelocate:
		return r.eachLive(r.relocate)
	default:
		return fmt.Errorf("crashsim: unknown op kind %v", op.kind)
	}
}

// noteCrash classifies an engine error on shard id: the armed device
// crashing is the schedule doing its job — fence the shard and keep the
// survivors serving. Anything else is a real failure.
func (r *runner) noteCrash(id int, err error) error {
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
func (r *runner) route(key string) (sh *shard.Shard, release func(), ok bool, err error) {
	sh, release, err = r.cluster.Acquire(r.ctx, relName, []byte(key))
	if err != nil {
		if errors.Is(err, shard.ErrShardDown) && sh != nil && sh.ID() == r.sched.CrashShard && r.fds[sh.ID()].Crashed() {
			r.crashed = true
			r.shed++
			return nil, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("route %q: %w", key, err)
	}
	return sh, release, true, nil
}

// eachLive runs fn on every live shard's engine in ascending id order.
func (r *runner) eachLive(fn func(id int, db *core.DB) error) error {
	for _, sh := range r.cluster.Shards() {
		if sh.Down() {
			continue
		}
		if err := fn(sh.ID(), sh.DB()); err != nil {
			return err
		}
	}
	return nil
}

// stream writes data through a streaming blob writer in fixed chunks.
func stream(w *blob.Writer, data []byte) error {
	for len(data) > 0 {
		n := min(writeChunk, len(data))
		if _, err := w.Write(data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// puts routes a (possibly multi-key) put batch: subs are grouped by
// owning shard and each group commits as one group-commit batch on its
// shard (or aborts when abort is set), shards in ascending id order.
func (r *runner) puts(subs []subOp, abort bool) error {
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

func (r *runner) putGroup(subs []subOp, abort bool) error {
	sh, release, ok, err := r.route(subs[0].key)
	if !ok || err != nil {
		return err
	}
	defer release()
	id := sh.ID()
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
			// Staged before the first byte hits the device: from here on a
			// crash may surface either the old or the new value.
			r.models[id].StagePut(sub.key, sub.full)
		}
		err = stream(w, sub.write)
		if err == nil && !abort {
			err = w.Close()
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
	return r.commitBatch(id, txns, keys)
}

func abortAll(txns []*core.Txn) {
	for _, tx := range txns {
		_ = tx.Abort()
	}
}

// single routes a one-key op: do runs it in a fresh transaction (staging
// the model as it goes), which then commits as its own batch.
func (r *runner) single(key string, do func(tx *core.Txn, m *refmodel.Model) error) error {
	sh, release, ok, err := r.route(key)
	if !ok || err != nil {
		return err
	}
	defer release()
	id := sh.ID()
	tx := sh.DB().Begin(nil)
	if err := do(tx, r.models[id]); err != nil {
		tx.Abort()
		return r.noteCrash(id, err)
	}
	return r.commitBatch(id, []*core.Txn{tx}, []string{key})
}

func (r *runner) append(sub subOp) error {
	return r.single(sub.key, func(tx *core.Txn, m *refmodel.Model) error {
		w, err := tx.AppendBlob(nil, relName, []byte(sub.key))
		if err != nil {
			return err
		}
		m.StagePut(sub.key, sub.full)
		if err := stream(w, sub.write); err != nil {
			w.Abort()
			return err
		}
		return w.Close()
	})
}

func (r *runner) delete(sub subOp) error {
	return r.single(sub.key, func(tx *core.Txn, m *refmodel.Model) error {
		m.StageDelete(sub.key)
		return tx.DeleteBlob(relName, []byte(sub.key))
	})
}

func (r *runner) update(sub subOp, scheme blob.UpdateScheme) error {
	return r.single(sub.key, func(tx *core.Txn, m *refmodel.Model) error {
		if scheme == blob.UpdateDelta {
			m.StageUpdateInPlace(sub.key, sub.full)
		} else {
			m.StagePut(sub.key, sub.full)
		}
		return tx.UpdateBlob(relName, []byte(sub.key), sub.off, sub.patch, scheme)
	})
}

// relocate runs one defragmentation round fragment on shard id: plan a
// few moves and commit each in its own transaction through the normal
// pipeline. Content is unchanged by construction, so the reference model
// stages nothing — the flush-first relocation protocol guarantees every
// crash point inside the window recovers the key byte-identical (old or
// new address).
func (r *runner) relocate(id int, db *core.DB) error {
	for _, tgt := range db.PlanRelocations(3) {
		if r.cluster.Shard(id).Down() {
			return nil
		}
		tx := db.Begin(nil)
		moved, err := tx.RelocateExtent(tgt)
		if err != nil {
			tx.Abort()
			return r.noteCrash(id, err)
		}
		if !moved {
			tx.Abort()
			continue
		}
		if err := r.commitBatch(id, []*core.Txn{tx}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) read(sub subOp) error {
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
	want, ok := r.models[id].Committed(sub.key)
	if !ok {
		return fmt.Errorf("crashsim: read of %q on shard %d: model has no committed value", sub.key, id)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("crashsim: read of %q on shard %d returned %d bytes, want %d (content diverged before any crash)",
			sub.key, id, len(got), len(want))
	}
	if r.crashed {
		r.served++
	}
	return nil
}

// commitBatch commits the transactions as one deterministic group-commit
// batch on shard id, then issues a device sync and promotes the keys in
// the shard's model. Until that sync completes, every key stays
// ambiguous — the batch's WAL records and extent writes may tear at the
// crash. A replica of the shard logs the acknowledged batch and pulls at
// its cadence.
func (r *runner) commitBatch(id int, txns []*core.Txn, keys []string) error {
	db := r.engines[id]
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
	// Durability barrier: after this sync the batch's extents are on
	// stable storage and the outcomes collapse to the new values.
	//blobvet:allow harness-issued sync on the fault device models the OS flush the schedule crashes around; not engine durability ordering
	if err := r.fds[id].Sync(nil); err != nil {
		return r.noteCrash(id, err)
	}
	m := r.models[id]
	for _, k := range keys {
		m.Promote(k)
	}
	if r.crashed {
		r.served++
	}
	if r.replica == nil || id != r.sched.CrashShard {
		return nil
	}
	b := ackedBatch{horizon: db.WAL().DurableLSN()}
	for _, k := range keys {
		v, ok := m.Committed(k)
		b.ops = append(b.ops, batchOp{key: k, content: append([]byte(nil), v...), del: !ok})
	}
	r.acked = append(r.acked, b)
	if len(r.acked)%r.sched.PullEvery == 0 {
		// The pull reads the primary's WAL and blob pages: a crash can
		// fire mid-pull, leaving the replica an exact per-commit prefix.
		if _, err := r.replica.Sync(r.ctx); err != nil {
			return r.noteCrash(id, err)
		}
	}
	return nil
}
