package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/core"
)

// Typed sentinel errors of the routing layer. The network surface maps
// both to 503 + Retry-After; they are distinct so metrics and tests can
// tell load shedding from crash fencing apart.
var (
	// ErrShardDown reports a route to a shard that is fenced (crashed
	// device, poisoned commit pipeline, or administratively removed).
	ErrShardDown = errors.New("shard: shard is down")
	// ErrShardBusy reports a per-shard admission rejection: the shard's
	// in-flight bound stayed saturated for the bounded queue wait.
	ErrShardBusy = errors.New("shard: shard admission limit reached")
)

// Options configures a Cluster.
type Options struct {
	// VNodes is the number of virtual nodes per shard (default
	// DefaultVNodes).
	VNodes int
	// MaxInFlightPerShard bounds concurrently admitted single-key
	// requests per shard (default 64). A slow shard saturates only its
	// own gate: requests for other shards never queue behind it.
	MaxInFlightPerShard int
	// MaxQueueWait bounds how long an over-limit request may wait for a
	// per-shard slot before ErrShardBusy (default 100ms).
	MaxQueueWait time.Duration
}

func (o *Options) defaults() {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.MaxInFlightPerShard <= 0 {
		o.MaxInFlightPerShard = 64
	}
	if o.MaxQueueWait <= 0 {
		o.MaxQueueWait = 100 * time.Millisecond
	}
}

// Shard is one engine instance plus the router-side state that fences
// it: an admission gate sized for this shard alone and a down marker.
type Shard struct {
	id   int
	db   atomic.Pointer[core.DB] // swapped on Revive; read lock-free on every route
	gate chan struct{}
	wait time.Duration
	down atomic.Bool

	routed atomic.Int64 // single-key ops routed here
	shed   atomic.Int64 // ErrShardBusy/ErrShardDown rejections
	waitNs atomic.Int64 // cumulative admitted queue wait

	replicas replicaSet // attached read replicas (see replica.go)
}

// ID returns the shard id (its index in the cluster).
func (s *Shard) ID() int { return s.id }

// DB returns the shard's engine.
func (s *Shard) DB() *core.DB { return s.db.Load() }

// Down reports whether the shard is fenced.
func (s *Shard) Down() bool { return s.down.Load() }

// Routed reports how many single-key operations were admitted to this
// shard.
func (s *Shard) Routed() int64 { return s.routed.Load() }

// Shed reports how many single-key operations were rejected (busy or
// down) for this shard's keyspace slice.
func (s *Shard) Shed() int64 { return s.shed.Load() }

// InFlight reports the number of currently admitted requests.
func (s *Shard) InFlight() int { return len(s.gate) }

// acquire takes a per-shard slot, waiting at most s.wait.
func (s *Shard) acquire(ctx context.Context) error {
	if s.down.Load() {
		s.shed.Add(1)
		return ErrShardDown
	}
	// The engine's group committer poisons itself on a device failure;
	// treat a poisoned pipeline as a crashed shard so its keyspace slice
	// degrades to fast 503s instead of slow commit errors.
	if err := s.DB().CommitterErr(); err != nil {
		s.down.Store(true)
		s.shed.Add(1)
		return fmt.Errorf("%w: %v", ErrShardDown, err)
	}
	select {
	case s.gate <- struct{}{}:
		s.routed.Add(1)
		return nil
	default:
	}
	start := time.Now()
	t := time.NewTimer(s.wait)
	defer t.Stop()
	select {
	case s.gate <- struct{}{}:
		s.waitNs.Add(int64(time.Since(start)))
		s.routed.Add(1)
		return nil
	case <-t.C:
		s.shed.Add(1)
		return ErrShardBusy
	case <-ctx.Done():
		s.shed.Add(1)
		return ctx.Err()
	}
}

func (s *Shard) release() { <-s.gate }

// Cluster is N independent engines behind one consistent-hash router.
// Topology (the ring and the shard set) is guarded by an RWMutex that
// every routed operation holds for reading; Rebalance takes it for
// writing only during the cutover barrier, so membership changes are
// atomic with respect to in-flight requests.
type Cluster struct {
	opts Options

	mu     sync.RWMutex
	ring   *Ring
	shards []*Shard // index == shard id; entries are never removed

	// Rebalance progress counters (expvar surfaces them).
	rebalancing    atomic.Bool
	rebalanceBytes atomic.Int64
	rebalanceBlobs atomic.Int64
}

// New builds a cluster over the given engines; dbs[i] becomes shard i.
// Every engine must be independent — its own device, pool, and WAL.
func New(dbs []*core.DB, opts Options) *Cluster {
	if len(dbs) == 0 {
		panic("shard: New needs at least one engine")
	}
	opts.defaults()
	c := &Cluster{opts: opts}
	members := make([]int, len(dbs))
	for i, db := range dbs {
		members[i] = i
		c.shards = append(c.shards, c.newShard(i, db))
	}
	c.ring = NewRing(members, opts.VNodes)
	return c
}

// Single wraps one engine as a one-shard cluster — the degenerate
// topology the single-engine blobserver runs on. The per-shard gate is
// sized generously; the server's own admission control is the real
// limit in that mode.
func Single(db *core.DB) *Cluster {
	return New([]*core.DB{db}, Options{MaxInFlightPerShard: 1 << 20})
}

func (c *Cluster) newShard(id int, db *core.DB) *Shard {
	s := &Shard{
		id:   id,
		gate: make(chan struct{}, c.opts.MaxInFlightPerShard),
		wait: c.opts.MaxQueueWait,
	}
	s.db.Store(db)
	return s
}

// NumShards returns the number of shards ever added (down shards
// included).
func (c *Cluster) NumShards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.shards)
}

// Shards returns a snapshot of all shards, index == id.
func (c *Cluster) Shards() []*Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Shard(nil), c.shards...)
}

// Shard returns shard id, or nil if no such shard exists.
func (c *Cluster) Shard(id int) *Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if id < 0 || id >= len(c.shards) {
		return nil
	}
	return c.shards[id]
}

// Ring returns the current routing ring.
func (c *Cluster) Ring() *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring
}

// Route returns the shard owning (rel, key) without admitting anything.
func (c *Cluster) Route(rel string, key []byte) *Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shards[c.ring.Shard(rel, key)]
}

// Acquire routes (rel, key) to its owning shard and takes a per-shard
// admission slot. On success the caller must invoke release exactly
// once, after the operation finishes: the topology read lock is held
// until then, which is what lets a live reshard's cutover barrier wait
// for in-flight operations instead of racing them. Errors are
// ErrShardDown (fast, fenced shard), ErrShardBusy (bounded wait
// expired), or the context's error.
func (c *Cluster) Acquire(ctx context.Context, rel string, key []byte) (sh *Shard, release func(), err error) {
	c.mu.RLock()
	sh = c.shards[c.ring.Shard(rel, key)]
	if err := sh.acquire(ctx); err != nil {
		c.mu.RUnlock()
		return sh, nil, err
	}
	return sh, func() {
		sh.release()
		c.mu.RUnlock()
	}, nil
}

// Healthy returns the shards currently serving (not fenced), index
// order.
func (c *Cluster) Healthy() []*Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Shard, 0, len(c.shards))
	for _, s := range c.shards {
		if !s.down.Load() {
			out = append(out, s)
		}
	}
	return out
}

// MarkDown fences shard id: its keyspace slice degrades to fast
// ErrShardDown (the router's 503) while every other shard keeps
// serving. Fencing does not touch the ring — the slice stays owned by
// the down shard so a recovery (Revive) restores it without moving
// keys.
func (c *Cluster) MarkDown(id int) {
	if s := c.Shard(id); s != nil {
		s.down.Store(true)
	}
}

// Revive puts a recovered engine back behind shard id and lifts the
// fence. The engine must contain the shard's recovered state (e.g. the
// result of core.RecoverDevice on the crashed shard's device).
func (c *Cluster) Revive(id int, db *core.DB) {
	s := c.Shard(id)
	if s == nil {
		return
	}
	s.db.Store(db)
	s.down.Store(false)
}

// CreateRelation creates the relation on every live shard — relations
// are global objects; single-key routing needs every shard to hold the
// relation so any key can land anywhere. Shards that already have it
// are fine (a revived shard recovers its relations from its own WAL).
// Down shards are skipped; Revive re-syncs relations via
// SyncRelations.
func (c *Cluster) CreateRelation(name string) error {
	var created bool
	var firstErr error
	for _, s := range c.Healthy() {
		_, err := s.DB().CreateRelation(name)
		switch {
		case err == nil:
			created = true
		case errors.Is(err, core.ErrRelationExists):
			// Another shard (or a previous partial create) already has it.
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", s.id, err)
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if !created {
		return core.ErrRelationExists
	}
	return nil
}

// Relations returns the union of relation names across live shards,
// sorted. (Shards can disagree transiently — a fenced shard misses
// creates issued while it was down; SyncRelations heals that on
// revive.)
func (c *Cluster) Relations() []string {
	seen := map[string]bool{}
	for _, s := range c.Healthy() {
		for _, name := range s.DB().Relations() {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SyncRelations creates on shard id every relation any live shard
// knows, healing the relation set after a revive or before a rebalance
// streams blobs to a new shard.
func (c *Cluster) SyncRelations(id int) error {
	s := c.Shard(id)
	if s == nil {
		return fmt.Errorf("shard: no shard %d", id)
	}
	for _, name := range c.Relations() {
		if _, err := s.DB().CreateRelation(name); err != nil && !errors.Is(err, core.ErrRelationExists) {
			return fmt.Errorf("shard %d: sync relation %q: %w", id, name, err)
		}
	}
	return nil
}

// AddShard registers a new engine as the next shard id WITHOUT adding
// it to the routing ring: no keys route to it until Rebalance streams
// its slice over and cuts the ring over. The new shard's relation set
// is synced immediately so fan-out creates reach it from now on.
func (c *Cluster) AddShard(db *core.DB) (int, error) {
	c.mu.Lock()
	id := len(c.shards)
	c.shards = append(c.shards, c.newShard(id, db))
	c.mu.Unlock()
	if err := c.SyncRelations(id); err != nil {
		return id, err
	}
	return id, nil
}

// Rebalancing reports whether a live reshard is in progress.
func (c *Cluster) Rebalancing() bool { return c.rebalancing.Load() }

// RebalancedBytes reports the cumulative blob bytes streamed
// shard→shard by reshards.
func (c *Cluster) RebalancedBytes() int64 { return c.rebalanceBytes.Load() }

// RebalancedBlobs reports the cumulative blobs streamed shard→shard by
// reshards.
func (c *Cluster) RebalancedBlobs() int64 { return c.rebalanceBlobs.Load() }

// Close shuts down every live shard's commit pipeline and leaves a
// checkpoint, returning the first error.
func (c *Cluster) Close() error {
	var firstErr error
	for _, s := range c.Shards() {
		if s.Down() {
			continue
		}
		if err := s.DB().CloseCommitter(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", s.id, err)
		}
		if err := s.DB().WAL().Checkpoint(nil); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: checkpoint: %w", s.id, err)
		}
	}
	return firstErr
}
