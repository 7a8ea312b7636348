// Package lockio checks the buffer pool's lock-drop I/O rule: no
// storage-device I/O — directly or through any chain of callees —
// while a sync.Mutex or sync.RWMutex is held.
//
// The PR 3 eviction redesign made this the pool's central latching
// invariant: a victim is claimed under the structural mutex, the mutex is
// dropped, the dirty extent is written back, and the claim is reconfirmed
// after relocking. Holding a pool latch across device I/O serializes
// every reader behind the disk; this analyzer turns the rule from a
// comment into a diagnostic.
//
// The analysis runs over buffer-pool packages (package name "buffer").
// It tracks locks acquired in the function being analyzed (must-held on
// all paths, so lock-drop windows don't false-positive) and flags, at
// each point where a lock is held, calls that do device I/O themselves
// or whose callee — at any depth, across package boundaries — reaches
// device I/O. Reachability comes from the summary pass's effect facts
// (Pass.AllObjectFacts), not from a same-package syntactic scan: the one
// hop the old implementation looked through is now the general closure
// over the call graph. Functions that follow the *Locked naming
// convention are callees, not lock owners: the lock they run under was
// acquired by their caller, which is where the I/O is reported.
//
// The closure respects the protocol it enforces. A callee that releases
// the caller-held latch class before reaching the device (the summary's
// Unlocks field — an unlock with no local must-acquisition) is the
// claim/unlock/write-back/relock pattern itself, executed one frame
// down: the eviction helper drops p.mu, writes the victim back, and
// relocks. Such a chain is not I/O under the latch and is not flagged;
// only chains that reach the device with every caller latch still held
// are.
//
// The ledger "core mode" this pass used to carry — dedup.mu held across
// WAL appends — is gone: that rule was one instance of lock-order
// reentry, and the lockorder analyzer now derives it (and every other
// instance) from the global lock-acquisition graph instead of a
// hand-coded mutex-and-method list.
package lockio

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"blobdb/internal/analysis"
	"blobdb/internal/analysis/cfg"
	"blobdb/internal/analysis/passes/internal/locks"
	"blobdb/internal/analysis/passes/internal/storageio"
	"blobdb/internal/analysis/passes/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: `check that buffer-pool latches are never held across device I/O

Claims must be made under the latch and I/O done outside it (claim,
unlock, write back, relock, reconfirm). Device I/O under a pool mutex
serializes all readers behind the disk. Callees are resolved through
function effect summaries, so I/O buried arbitrarily deep in helpers —
including helpers in other packages — is still attributed to the locked
call site.`,
	Run:      run,
	Requires: []*analysis.Analyzer{summary.Analyzer},
}

func run(pass *analysis.Pass) (interface{}, error) {
	if storageio.Base(pass.Pkg.Path()) != "buffer" {
		return nil, nil
	}
	r := newReach(pass.AllObjectFacts(summary.Analyzer.Name))
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, r)
		}
	}
	return nil, nil
}

// reach answers "does this function transitively perform device I/O,
// and through which first operation?" from the summary fact stream.
type reach struct {
	sums    map[string]*summary.FuncSummary
	memo    map[string]string // func key -> first I/O op ("" = none)
	onStack map[string]bool
}

func key(pkg, path string) string { return pkg + "\x00" + path }

func newReach(all []analysis.ObjectFact) *reach {
	r := &reach{sums: map[string]*summary.FuncSummary{}, memo: map[string]string{}, onStack: map[string]bool{}}
	for _, of := range all {
		if s, ok := of.Fact.(*summary.FuncSummary); ok {
			r.sums[key(of.PkgPath, of.ObjPath)] = s
		}
	}
	return r
}

// io returns the first device I/O operation k transitively performs
// while the caller's latches (held, a sorted list of lock classes) stay
// held, or "". A function whose Unlocks cover every held class is the
// lock-drop
// protocol running one frame down — its I/O happens outside the
// caller's critical section, so the chain is clean.
func (r *reach) io(k string, held []string) string {
	mk := k + "\x01" + strings.Join(held, ",")
	if op, ok := r.memo[mk]; ok {
		return op
	}
	if r.onStack[mk] {
		return ""
	}
	r.onStack[mk] = true
	defer delete(r.onStack, mk)

	op := ""
	if s, ok := r.sums[k]; ok && !dropsAll(s.Unlocks, held) {
		if len(s.IO) > 0 {
			op = s.IO[0].Op
		} else {
			for _, c := range s.Calls {
				if c.Field {
					continue // function-field targets are lockorder's concern
				}
				if sub := r.io(key(c.PkgPath, c.ObjPath), held); sub != "" {
					op = sub
					break
				}
			}
		}
	}
	r.memo[mk] = op
	return op
}

// dropsAll reports whether every held lock class appears in unlocks. A
// held lock with no class (a caller-local mutex) can never be released
// by a callee, so its presence keeps the chain flagged.
func dropsAll(unlocks, held []string) bool {
	for _, h := range held {
		found := false
		for _, u := range unlocks {
			if u == h {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// lockset maps the locks held on every path reaching a point — keyed by
// receiver expression text (e.g. "p.mu", for display) — to their
// canonical lock class (locks.Class; "" for caller-local mutexes).
type lockset map[string]string

func (s lockset) clone() lockset {
	c := make(lockset, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// classes returns the sorted held lock classes, including "" entries for
// locks no callee could possibly release.
func (s lockset) classes() []string {
	out := make([]string, 0, len(s))
	for _, v := range s {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// intersect merges a successor's incoming state for a must-analysis;
// reports whether old changed. old == nil means unvisited.
func intersect(old, add lockset) (lockset, bool) {
	if old == nil {
		return add, true
	}
	changed := false
	for k := range old {
		if _, ok := add[k]; !ok {
			delete(old, k)
			changed = true
		}
	}
	return old, changed
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, r *reach) {
	// Cheap pre-scan: no lock acquisitions means nothing to do.
	hasLock := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, _, _, ok := lockOp(pass, call); ok && (op == "Lock" || op == "RLock") {
				hasLock = true
			}
		}
		return !hasLock
	})
	if !hasLock {
		return
	}
	g := cfg.New(fn.Body)
	if g == nil {
		return
	}

	in := map[*cfg.Block]lockset{g.Entry: {}}
	work := []*cfg.Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		st := in[b].clone()
		for _, n := range b.Nodes {
			applyNode(pass, st, n, nil)
		}
		for _, e := range b.Succs {
			if merged, changed := intersect(in[e.To], st.clone()); changed {
				in[e.To] = merged
				work = append(work, e.To)
			}
		}
	}

	// Report on the converged states (held sets only shrink during the
	// fixpoint, so reporting during iteration could flag lock-drop
	// windows that a later pass proves unlocked).
	for _, b := range g.Blocks {
		st := in[b]
		if st == nil {
			continue
		}
		st = st.clone()
		for _, n := range b.Nodes {
			applyNode(pass, st, n, r)
		}
	}
}

// applyNode threads one CFG node through the lockset. When r is
// non-nil, I/O-under-lock calls are diagnosed.
func applyNode(pass *analysis.Pass, st lockset, n ast.Node, r *reach) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // runs later, under its own discipline
		case *ast.DeferStmt:
			return false // runs at return; deferred unlocks keep the lock held here
		case *ast.CallExpr:
			if op, lockExpr, class, ok := lockOp(pass, m); ok {
				switch op {
				case "Lock", "RLock":
					st[lockExpr] = class
				case "Unlock", "RUnlock":
					delete(st, lockExpr)
				}
				return true
			}
			if r == nil || len(st) == 0 {
				return true
			}
			if op, ok := storageio.Classify(pass.TypesInfo, m); ok {
				pass.Reportf(m.Pos(), "device I/O (%s) while %s is held; release the pool latch before touching storage", op, heldNames(st))
				return true
			}
			if pkg, path, ok := summary.Resolve(pass.TypesInfo, m); ok {
				if op := r.io(key(pkg, path), st.classes()); op != "" {
					pass.Reportf(m.Pos(), "call to %s performs device I/O (%s) while %s is held; release the pool latch before touching storage", funcName(path), op, heldNames(st))
				}
			}
		}
		return true
	})
}

func heldNames(st lockset) string {
	// Deterministic, and in practice a single lock.
	best := ""
	for k := range st {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// lockOp matches mutex operations: (Lock|RLock|Unlock|RUnlock) on a value
// whose method comes from package sync (including locks embedded in pool
// shards). It names the lock two ways: by receiver expression text (for
// the diagnostic) and by canonical class (to match callee Unlocks facts).
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (op, expr, class string, ok bool) {
	m, ok := locks.Match(pass.TypesInfo, call)
	if !ok {
		return "", "", "", false
	}
	return m.Name, types.ExprString(m.Expr), m.Class, true
}

// funcName returns the bare function name of an object path
// ("Type.Method" or "Func").
func funcName(path string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[i+1:]
	}
	return path
}
