package crashsim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Trace generation.
//
// A trace is a deterministic function of its seed alone: the op list —
// keys, contents, batch compositions, update offsets — is fully
// precomputed before any engine call, so replaying the same trace seed
// always drives the identical operation sequence regardless of where (or
// whether) the crash fires. A shadow map tracks which keys exist and with
// what content so the generator only emits applicable ops (append/delete
// on present keys) and can precompute the post-op content the reference
// model stages.

type opKind int

const (
	opPut opKind = iota
	opPutAbort
	opAppend
	opDelete
	opUpdateClone
	opUpdateInPlace
	opBatchPut
	opCheckpoint
	opRead
	// opPutDup puts an EXISTING key's exact content under another key, so
	// the engine's content-addressed dedup shares the extent sequence. The
	// engine call is an ordinary streaming put; the sharing (and its
	// refcount ledger) is what recovery must get right.
	opPutDup
	// opPutDupAbort is opPutDup aborted mid-transaction: the staged
	// refcount increments must be undone.
	opPutDupAbort
	// opRelocate runs a defragmentation round fragment: plan a few extent
	// relocations and commit each one. Content never changes, so the
	// reference model stages nothing — but every crash point inside the
	// copy/remap window must recover with the key intact and the
	// allocator/ledger clean.
	opRelocate
	// opStagedCheckpoint stages a put, takes its shard's checkpoint while
	// the put is staged but not committed, then commits it: the image
	// holds a tree change whose extents have not landed.
	opStagedCheckpoint
	// opStagedCheckpointAbort is opStagedCheckpoint aborted after the
	// checkpoint: the image holds a value that must never surface.
	opStagedCheckpointAbort
)

func (k opKind) String() string {
	switch k {
	case opPut:
		return "put"
	case opPutAbort:
		return "put-abort"
	case opAppend:
		return "append"
	case opDelete:
		return "delete"
	case opUpdateClone:
		return "update-clone"
	case opUpdateInPlace:
		return "update-inplace"
	case opBatchPut:
		return "batch-put"
	case opCheckpoint:
		return "checkpoint"
	case opRead:
		return "read"
	case opPutDup:
		return "put-dup"
	case opPutDupAbort:
		return "put-dup-abort"
	case opRelocate:
		return "relocate"
	case opStagedCheckpoint:
		return "staged-checkpoint"
	case opStagedCheckpointAbort:
		return "staged-checkpoint-abort"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// subOp is one key's share of a trace op.
type subOp struct {
	key   string
	full  []byte // post-op full content (what the reference model stages)
	write []byte // bytes handed to the streaming writer (append: the suffix)
	off   uint64 // update offset
	patch []byte // update patch
}

type traceOp struct {
	kind opKind
	subs []subOp
}

// keySpace is the number of distinct keys a trace operates on. Small
// enough that keys are replaced, grown, and deleted repeatedly.
const keySpace = 20

// stagedKeys is the number of keys the staged-checkpoint ops overwrite,
// apart from the trace's other keys. They draw keys and contents from an
// rng of their own, so every other op of a trace is the one its seed
// draws without them.
const stagedKeys = 2

// genTrace precomputes the operation list for a trace seed. With dedup
// set, the roll table shifts toward sharing-heavy histories: duplicate
// puts (committed and aborted), deletes of shared sequences, divergent
// appends/updates on sharers, and relocation rounds.
func genTrace(seed int64, steps int, dedup bool) []traceOp {
	rng := rand.New(rand.NewSource(seed))
	side := rand.New(rand.NewSource(^seed))
	shadow := map[string][]byte{}
	present := func() []string {
		out := make([]string, 0, len(shadow))
		for k := range shadow {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	pick := func() (string, bool) {
		ks := present()
		if len(ks) == 0 {
			return "", false
		}
		return ks[rng.Intn(len(ks))], true
	}
	anyKey := func() string { return fmt.Sprintf("k%02d", rng.Intn(keySpace)) }
	content := func() []byte {
		var n int
		if rng.Intn(3) == 0 {
			n = 1 + rng.Intn(256)
		} else {
			n = 256 + rng.Intn(12<<10)
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	ops := make([]traceOp, 0, steps)
	for len(ops) < steps {
		if dedup && rng.Intn(100) < 38 {
			// Dedup-family op instead of a baseline one.
			switch roll := rng.Intn(100); {
			case roll < 55: // duplicate put: share an existing sequence
				src, ok := pick()
				if !ok {
					continue
				}
				dst := anyKey()
				c := append([]byte(nil), shadow[src]...)
				if len(c) == 0 {
					continue
				}
				ops = append(ops, traceOp{kind: opPutDup, subs: []subOp{{key: dst, full: c, write: c}}})
				shadow[dst] = c
			case roll < 70: // duplicate put, aborted: share must be undone
				src, ok := pick()
				if !ok {
					continue
				}
				dst := anyKey()
				c := append([]byte(nil), shadow[src]...)
				if len(c) == 0 {
					continue
				}
				ops = append(ops, traceOp{kind: opPutDupAbort, subs: []subOp{{key: dst, full: c, write: c}}})
				// shadow unchanged: the op never commits
			default: // relocation round
				ops = append(ops, traceOp{kind: opRelocate})
			}
			continue
		}
		switch roll := rng.Intn(100); {
		case roll < 18: // batch of puts sharing one group commit
			nk := 2 + rng.Intn(3)
			seen := map[string]bool{}
			var subs []subOp
			for len(subs) < nk {
				k := anyKey()
				if seen[k] {
					continue
				}
				seen[k] = true
				c := content()
				subs = append(subs, subOp{key: k, full: c, write: c})
			}
			ops = append(ops, traceOp{kind: opBatchPut, subs: subs})
			for _, s := range subs {
				shadow[s.key] = s.full
			}
		case roll < 38: // single put
			k := anyKey()
			c := content()
			ops = append(ops, traceOp{kind: opPut, subs: []subOp{{key: k, full: c, write: c}}})
			shadow[k] = c
		case roll < 46: // streaming put, aborted mid-transaction
			k := anyKey()
			c := content()
			ops = append(ops, traceOp{kind: opPutAbort, subs: []subOp{{key: k, full: c, write: c}}})
			// shadow unchanged: the op never commits
		case roll < 60: // append
			k, ok := pick()
			if !ok {
				continue
			}
			extra := content()
			full := append(append([]byte(nil), shadow[k]...), extra...)
			ops = append(ops, traceOp{kind: opAppend, subs: []subOp{{key: k, full: full, write: extra}}})
			shadow[k] = full
		case roll < 70: // delete
			k, ok := pick()
			if !ok {
				continue
			}
			ops = append(ops, traceOp{kind: opDelete, subs: []subOp{{key: k}}})
			delete(shadow, k)
		case roll < 84: // update (clone or in-place)
			k, ok := pick()
			if !ok || len(shadow[k]) == 0 {
				continue
			}
			old := shadow[k]
			n := 1 + rng.Intn(len(old))
			off := rng.Intn(len(old) - n + 1)
			patch := make([]byte, n)
			rng.Read(patch)
			full := append([]byte(nil), old...)
			copy(full[off:], patch)
			kind := opUpdateClone
			if rng.Intn(2) == 0 {
				kind = opUpdateInPlace
			}
			ops = append(ops, traceOp{kind: kind, subs: []subOp{{
				key: k, full: full, off: uint64(off), patch: patch,
			}}})
			shadow[k] = full
		case roll < 88: // checkpoint
			ops = append(ops, traceOp{kind: opCheckpoint})
		case roll < 92: // checkpoint while a put is staged
			n := 256 + side.Intn(12<<10)
			c := make([]byte, n)
			side.Read(c)
			kind := opStagedCheckpoint
			if side.Intn(3) == 0 {
				kind = opStagedCheckpointAbort
			}
			ops = append(ops, traceOp{kind: kind, subs: []subOp{{key: fmt.Sprintf("s%d", side.Intn(stagedKeys)), full: c, write: c}}})
		default: // read-back check
			k, ok := pick()
			if !ok {
				continue
			}
			ops = append(ops, traceOp{kind: opRead, subs: []subOp{{key: k}}})
		}
	}
	return ops
}
