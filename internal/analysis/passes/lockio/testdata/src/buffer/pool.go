// Package buffer exercises the lockio analyzer: device I/O under a pool
// latch (directly or through any chain of callees, same-package or not)
// versus the conforming claim/unlock/write-back/relock/reconfirm
// pattern.
package buffer

import (
	"sync"

	"spill"
	"storage"
)

type shard struct {
	sync.RWMutex
	resident map[storage.PID]int
}

type pool struct {
	mu     sync.Mutex
	shards [4]shard
	dev    storage.Device
}

func (p *pool) writeBack(pid storage.PID, buf []byte) error {
	return storage.WriteVec(p.dev, []storage.Seg{{PID: pid, N: 1, Buf: buf}})
}

func (p *pool) claimVictim() storage.PID  { return 1 }
func (p *pool) reconfirm(pid storage.PID) {}

// ---- violations ----

func (p *pool) badDirectWrite(buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dev.WritePages(1, 1, buf) // want `device I/O \(WritePages\) while p.mu is held`
}

func (p *pool) badOneHop(buf []byte) error {
	p.mu.Lock()
	err := p.writeBack(2, buf) // want `call to writeBack performs device I/O \(WriteVec\) while p.mu is held`
	p.mu.Unlock()
	return err
}

func (p *pool) badReadUnderShard(buf []byte) error {
	s := &p.shards[0]
	s.RLock()
	err := p.dev.ReadPages(3, 1, buf) // want `device I/O \(ReadPages\) while s is held`
	s.RUnlock()
	return err
}

func (p *pool) badSyncUnderLock() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dev.Sync() // want `device I/O \(Sync\) while p.mu is held`
}

// badTwoHopCrossPkg reaches the device through spill.Drain → stage →
// storage.WriteVec: two hops, the second unexported in another package.
// Only the summary closure can attribute this to the locked call site.
func (p *pool) badTwoHopCrossPkg(segs []storage.Seg) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return spill.Drain(p.dev, segs) // want `call to Drain performs device I/O \(WriteVec\) while p.mu is held`
}

// badHelperChain layers a same-package helper over the cross-package
// one: three hops end to end.
func (p *pool) badHelperChain(segs []storage.Seg) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drainAll(segs) // want `call to drainAll performs device I/O \(WriteVec\) while p.mu is held`
}

func (p *pool) drainAll(segs []storage.Seg) error {
	return spill.Drain(p.dev, segs)
}

// ---- conforming code ----

// goodLockDrop is the PR 3 eviction pattern: claim under the latch, drop
// it for the write-back, reconfirm after relocking.
func (p *pool) goodLockDrop(buf []byte) error {
	p.mu.Lock()
	victim := p.claimVictim()
	p.mu.Unlock()

	if err := p.writeBack(victim, buf); err != nil {
		return err
	}

	p.mu.Lock()
	p.reconfirm(victim)
	p.mu.Unlock()
	return nil
}

// evictOneLocked is the lock-drop protocol run one frame down — the real
// pool's eviction shape: the caller holds p.mu, the helper drops it for
// the write-back and relocks before returning. Its summary records the
// drop (Unlocks=[buffer.pool.mu]), so callers holding p.mu across it are
// not flagged: the I/O happens outside their critical section.
func (p *pool) evictOneLocked(buf []byte) error {
	victim := p.claimVictim()
	p.mu.Unlock()
	err := p.writeBack(victim, buf)
	p.mu.Lock()
	if err == nil {
		p.reconfirm(victim)
	}
	return err
}

// goodEvictViaHelper calls the lock-drop helper under the latch: the
// pinned shape of internal/buffer's admit → evictOneLocked loop.
func (p *pool) goodEvictViaHelper(buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictOneLocked(buf)
}

// badEvictKeepsLatch looks like the helper pattern but never drops the
// latch, so the write-back really does ride under p.mu.
func (p *pool) evictKeepsLatch(buf []byte) error {
	return p.writeBack(p.claimVictim(), buf)
}

func (p *pool) badEvictKeepsLatch(buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictKeepsLatch(buf) // want `call to evictKeepsLatch performs device I/O \(WriteVec\) while p.mu is held`
}

// badShardHeldThroughDrop: the helper drops p.mu but the caller also
// holds a shard latch the helper never releases — the drop does not
// cover the full held set, so the call is still flagged.
func (p *pool) badShardHeldThroughDrop(buf []byte) error {
	s := &p.shards[2]
	p.mu.Lock()
	s.RLock()
	err := p.evictOneLocked(buf) // want `call to evictOneLocked performs device I/O \(WriteVec\) while p.mu is held`
	s.RUnlock()
	p.mu.Unlock()
	return err
}

func (p *pool) goodNoLock(buf []byte) error {
	return storage.ReadVec(p.dev, []storage.Seg{{PID: 9, N: 1, Buf: buf}})
}

func (p *pool) goodBookkeepingUnderLock(pid storage.PID) int {
	s := &p.shards[int(pid)%len(p.shards)]
	s.RLock()
	defer s.RUnlock()
	return s.resident[pid]
}
