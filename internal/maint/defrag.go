// Package maint houses online maintenance daemons that run against a live
// engine: today, the defragmenter. Maintenance is strictly best-effort and
// pace-limited — it must never hurt foreground traffic beyond its knobs —
// and every mutation rides a normal transaction, so crash consistency
// comes from the engine, not from this package.
package maint

import (
	"context"
	"expvar"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/core"
	"blobdb/internal/extent"
)

// Config paces the defragmenter.
type Config struct {
	// MinScore gates a round: relocation only starts when the allocator's
	// fragmentation score (dead fraction of the heap footprint) is at
	// least this. 0 means use the default.
	MinScore float64
	// MaxMoves caps relocations per round; each move is its own short
	// transaction, so this bounds row-lock pressure per round. 0: default.
	MaxMoves int
	// Interval is the background cadence of Run. 0: default.
	Interval time.Duration
	// Pause inserts a sleep between individual moves — the blunt pacing
	// knob for keeping foreground read latency flat during a round.
	Pause time.Duration
	// Logf, when set, receives one line per completed round.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MinScore <= 0 {
		c.MinScore = 0.15
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = 64
	}
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	return c
}

// Report summarizes one defragmentation round.
type Report struct {
	Before, After  extent.FragReport
	Planned        int    // relocation targets the planner proposed
	Moved          int    // extents actually relocated
	Skipped        int    // stale plans, shared sequences, no slot below
	ReclaimedPages uint64 // pages retracted from the high-water mark
	// PendingFrees counts deferred free batches still held back by
	// readers when the round ended. Until they land, After counts the
	// moved extents' old copies as live, so its score reads lower than
	// the heap will be; the next round applies them before it scores.
	PendingFrees int
}

// Defragmenter compacts a live engine's heap region: it relocates live,
// unshared extents into free slots at lower addresses (core.RelocateExtent
// — readers stay lock-free throughout) and retracts the allocator's
// high-water mark over the space that empties out at the top.
type Defragmenter struct {
	db  *core.DB
	cfg Config

	rounds    atomic.Uint64
	moves     atomic.Uint64
	skips     atomic.Uint64
	reclaimed atomic.Uint64
	errs      atomic.Uint64

	mu   sync.Mutex
	last Report
}

// New wires a defragmenter over db. Call RunOnce for a single round or Run
// for the background loop.
func New(db *core.DB, cfg Config) *Defragmenter {
	return &Defragmenter{db: db, cfg: cfg.withDefaults()}
}

// RunOnce executes one defragmentation round: apply the frees earlier
// rounds left deferred behind readers and shrink the high-water mark over
// them, score, plan, relocate up to MaxMoves extents (one short
// transaction each), drain the commit pipeline, tick the reclaimer so the
// vacated sources reach the free lists, and shrink the high-water mark.
// Returns the round's report; a nil error with Moved == 0 means the heap
// was already packed enough.
func (d *Defragmenter) RunOnce(ctx context.Context) (Report, error) {
	alloc := d.db.Allocator()
	rep := Report{Before: alloc.FragStats()}
	// Apply the frees earlier rounds left deferred behind readers, and
	// retract the mark over them, before scoring: while they are pending
	// the old copies count as live and the score reads low, so a round
	// that scored first could turn away and leave the mark unshrunk.
	d.db.ReclaimTick()
	rep.ReclaimedPages = alloc.ShrinkHWM()
	if landed := alloc.FragStats(); landed.Score < d.cfg.MinScore {
		d.reclaimed.Add(rep.ReclaimedPages)
		rep.After = landed
		rep.PendingFrees = d.db.ReclaimPending()
		return rep, nil
	}
	d.rounds.Add(1)

	targets := d.db.PlanRelocations(d.cfg.MaxMoves)
	rep.Planned = len(targets)
	for _, tgt := range targets {
		if err := ctx.Err(); err != nil {
			break
		}
		tx := d.db.BeginCtx(ctx, nil)
		moved, err := tx.RelocateExtent(tgt)
		if err != nil {
			tx.Abort()
			d.errs.Add(1)
			d.finishRound(&rep)
			return rep, err
		}
		if !moved {
			tx.Abort()
			rep.Skipped++
			d.skips.Add(1)
			continue
		}
		if err := tx.Commit(); err != nil {
			d.errs.Add(1)
			d.finishRound(&rep)
			return rep, err
		}
		rep.Moved++
		d.moves.Add(1)
		if d.cfg.Pause > 0 {
			time.Sleep(d.cfg.Pause)
		}
	}

	// The vacated sources sit in deferred-free batches until the epoch
	// horizon passes; drain in-flight commits, then tick so they reach
	// the allocator before the shrink.
	d.db.DrainCommits()
	d.db.ReclaimTick()
	rep.ReclaimedPages += alloc.ShrinkHWM()
	d.reclaimed.Add(rep.ReclaimedPages)
	d.finishRound(&rep)
	if d.cfg.Logf != nil {
		d.cfg.Logf("maint: defrag round: score %.3f -> %.3f, moved %d/%d (skipped %d), reclaimed %d pages, %d free batches pending",
			rep.Before.Score, rep.After.Score, rep.Moved, rep.Planned, rep.Skipped, rep.ReclaimedPages, rep.PendingFrees)
	}
	return rep, nil
}

func (d *Defragmenter) finishRound(rep *Report) {
	rep.After = d.db.Allocator().FragStats()
	rep.PendingFrees = d.db.ReclaimPending()
	d.mu.Lock()
	d.last = *rep
	d.mu.Unlock()
}

// Run loops RunOnce on the configured interval until ctx is cancelled.
// Errors are counted (and logged via Logf) but do not stop the loop: a
// transient commit failure should not end maintenance forever.
func (d *Defragmenter) Run(ctx context.Context) {
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := d.RunOnce(ctx); err != nil && d.cfg.Logf != nil {
				d.cfg.Logf("maint: defrag round failed: %v", err)
			}
		}
	}
}

// LastReport returns the most recent round's report.
func (d *Defragmenter) LastReport() Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Vars returns the defragmenter's progress counters as an expvar.Func
// value for a server's /debug/vars map.
func (d *Defragmenter) Vars() expvar.Var {
	return expvar.Func(func() any {
		last := d.LastReport()
		return map[string]any{
			"rounds":          d.rounds.Load(),
			"moved_extents":   d.moves.Load(),
			"skipped_targets": d.skips.Load(),
			"reclaimed_pages": d.reclaimed.Load(),
			"errors":          d.errs.Load(),
			"score":           d.db.Allocator().FragStats().Score,
			"last_round": map[string]any{
				"score_before":    last.Before.Score,
				"score_after":     last.After.Score,
				"planned":         last.Planned,
				"moved":           last.Moved,
				"skipped":         last.Skipped,
				"reclaimed_pages": last.ReclaimedPages,
				"pending_frees":   last.PendingFrees,
			},
		}
	})
}
