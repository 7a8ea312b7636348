// Package walorder is the static shadow of the WAL-before-flush rule:
// durability ordering is owned by exactly two layers, so the analyzer
// pins device-level writes and syncs to them.
//
//   - Device.Sync establishes the durable prefix. Only internal/wal (the
//     group-commit/checkpoint sync path) and the committer in
//     internal/core may call it: a sync issued anywhere else can promote
//     extent pages to durable before their commit record, silently
//     breaking the single-flush protocol's crash story.
//   - Extent write-back (WritePages / WritePagesVec / storage.WriteVec)
//     belongs to internal/buffer and internal/storage. An engine layer
//     writing pages directly bypasses the pool's dirty tracking and the
//     WAL's LSN-framed segment fencing, so recovery can no longer reason
//     about what reached the device.
//
// Two further rules guard the refcount ledger and the defragmenter:
//
//   - RecRefDelta — the ledger's WAL record — is appended only by the
//     dedup ledger in internal/core (increments under the sealing
//     transaction in tryDedup, apply-time decrements in logDecs, both in
//     ledger.go). Recovery replays these batches under an owner-tagged,
//     seq-fenced contract; a RecRefDelta minted anywhere else forks that
//     contract, so any reference outside core (and any append outside
//     core's ledger.go) is flagged.
//   - internal/maint (the online defragmenter) is in scope: relocation
//     copies must route through the buffer pool via core's Txn API, never by writing pages or syncing the device
//     directly — a defragmenter-issued sync could promote a half-copied
//     extent to durable ahead of its remap record.
//
// Reads are not ordering-sensitive and are never flagged. Simulator and
// tooling packages (oskern, dbsim, bench) are out of scope: they model
// devices or drive the engine from outside. bench's Our.physlog adapter
// does append blob bytes to the WAL and flush them ahead of the commit,
// but that is the baseline being measured, not an engine write path.
//
// Syncs are also tracked *through* calls: a non-committer function that
// reaches Device.Sync transitively — through any chain of helpers whose
// links are neither committer-named nor inside the owning layers
// (wal/buffer/storage) — is flagged at the call site, using the summary
// pass's effect facts. Only chains ending in an unscanned package are
// reported this way; a stray sync inside a scanned engine layer is
// already flagged at its own body, and reporting it again at every
// caller would bury the signal.
package walorder

import (
	"go/ast"
	"path/filepath"
	"strings"

	"blobdb/internal/analysis"
	"blobdb/internal/analysis/passes/internal/storageio"
	"blobdb/internal/analysis/passes/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc: `restrict Device.Sync to the WAL/committer and page writes to the buffer manager

The single-flush commit protocol is an ordering argument: WAL record,
sync, then extent write-back. Any other layer syncing or writing pages
invalidates the argument statically. Callee chains are resolved through
function effect summaries, so a sync buried in an unscanned helper
package is attributed to the engine call site that reaches it.`,
	Run:      run,
	Requires: []*analysis.Analyzer{summary.Analyzer},
}

// scopePkgs are the engine layers above the device where stray writes or
// syncs would break the ordering argument. The owning layers (wal,
// buffer, storage) are not scanned for their own privileges; core is
// scanned but its committer/checkpoint functions may sync.
var scopePkgs = map[string]bool{
	"core":       true,
	"blob":       true,
	"blobserver": true,
	"crashsim":   true,
	"fusefs":     true,
	"wiki":       true,
	"extent":     true,
	"maint":      true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pkgBase := storageio.Base(pass.Pkg.Path())
	if !scopePkgs[pkgBase] {
		return nil, nil
	}
	r := newSyncReach(pass.AllObjectFacts(summary.Analyzer.Name))
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		checkLedgerRecords(pass, pkgBase, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, pkgBase, fn, r)
		}
	}
	return nil, nil
}

// ownerPkgs are the layers whose device privileges are their own: a
// chain entering them is sanctioned (wal.Sync IS the durability point).
var ownerPkgs = map[string]bool{"wal": true, "buffer": true, "storage": true}

// syncReach answers "does this function transitively issue Device.Sync
// through an unsanctioned chain?" from the summary fact stream.
type syncReach struct {
	sums    map[string]*summary.FuncSummary
	memo    map[string][]string // func key -> chain of hop names ending at Sync, nil = clean
	onStack map[string]bool
}

func factKey(pkg, path string) string { return pkg + "\x00" + path }

func newSyncReach(all []analysis.ObjectFact) *syncReach {
	r := &syncReach{sums: map[string]*summary.FuncSummary{}, memo: map[string][]string{}, onStack: map[string]bool{}}
	for _, of := range all {
		if s, ok := of.Fact.(*summary.FuncSummary); ok {
			r.sums[factKey(of.PkgPath, of.ObjPath)] = s
		}
	}
	return r
}

// chain returns the hop names from (pkg, path) to an unsanctioned direct
// Sync, or nil. Traversal stops at owner packages and committer-named
// functions (sanctioned protocol entries), and reports a direct Sync
// only when it sits in an unscanned package — scanned layers are flagged
// at the sync's own body instead.
func (r *syncReach) chain(pkg, path string) []string {
	base := storageio.Base(pkg)
	if ownerPkgs[base] || committerFunc(funcName(path)) {
		return nil
	}
	k := factKey(pkg, path)
	if c, ok := r.memo[k]; ok {
		return c
	}
	if r.onStack[k] {
		return nil
	}
	r.onStack[k] = true
	defer delete(r.onStack, k)

	var out []string
	s, ok := r.sums[k]
	if ok {
		if !scopePkgs[base] && directSync(s) {
			out = []string{base + "." + path, "Device.Sync"}
		} else {
			for _, c := range s.Calls {
				if c.Field {
					continue
				}
				if sub := r.chain(c.PkgPath, c.ObjPath); sub != nil {
					out = append([]string{base + "." + path}, sub...)
					break
				}
			}
		}
	}
	r.memo[k] = out
	return out
}

func directSync(s *summary.FuncSummary) bool {
	for _, fx := range s.IO {
		if fx.Op == "Sync" {
			return true
		}
	}
	return false
}

// funcName returns the bare function name of an object path ("Type.Method"
// or "Func").
func funcName(path string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// checkLedgerRecords enforces RecRefDelta ownership. Outside core, any
// reference to the constant is flagged — there is no legitimate reason
// for another engine layer to mint or parse ledger records. Inside core,
// appends must come from ledger.go, where the dedup ledger's increment
// (tryDedup) and decrement (logDecs) paths live; reads (recovery's
// record-type dispatch) are unrestricted.
func checkLedgerRecords(pass *analysis.Pass, pkgBase string, file *ast.File) {
	if pkgBase != "core" {
		ast.Inspect(file, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok || !storageio.IsRefDeltaConst(pass.TypesInfo, e) {
				return true
			}
			pass.Reportf(e.Pos(), "refcount ledger WAL record (RecRefDelta) referenced outside internal/core: ledger mutation is owned by the core committer/reclaimer; recovery's owner-tagged replay admits no other append site")
			return false
		})
		return
	}
	if filepath.Base(pass.Fset.Position(file.Pos()).Filename) == "ledger.go" {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := storageio.ClassifyWAL(pass.TypesInfo, call)
		if !ok || (op != "AppendLSN" && op != "Append") {
			return true
		}
		for _, arg := range call.Args {
			if storageio.IsRefDeltaConst(pass.TypesInfo, arg) {
				pass.Reportf(call.Pos(), "RecRefDelta appended outside the dedup ledger (internal/core/ledger.go): refcount batches are seq-fenced and owner-tagged there; a stray append desynchronizes replay from the tuple recount")
				return false
			}
		}
		return true
	})
}

// committerFunc reports whether a core function is part of the commit /
// checkpoint protocol, which owns its syncs (the dual-slot checkpoint
// write is separately justified with an allow comment).
func committerFunc(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "commit") || strings.Contains(l, "checkpoint")
}

func checkFunc(pass *analysis.Pass, pkgBase string, fn *ast.FuncDecl, r *syncReach) {
	committerCaller := pkgBase == "core" && committerFunc(fn.Name.Name)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := storageio.Classify(pass.TypesInfo, call)
		if !ok {
			// Not a device op itself — but the callee may reach one. A
			// committer owns its syncs however it delegates them.
			if committerCaller {
				return true
			}
			if pkg, path, ok := summary.Resolve(pass.TypesInfo, call); ok {
				if chain := r.chain(pkg, path); chain != nil {
					pass.Reportf(call.Pos(), "call to %s reaches Device.Sync (%s) outside internal/wal and the core committer: durability ordering is owned by the WAL (single-flush protocol); route the sync through wal.Sync or the commit pipeline", funcName(path), strings.Join(chain, " → "))
				}
			}
			return true
		}
		switch op {
		case "Sync":
			if committerCaller {
				return true
			}
			pass.Reportf(call.Pos(), "Device.Sync outside internal/wal and the core committer: durability ordering is owned by the WAL (single-flush protocol); call wal.Sync or commit through the pipeline")
		case "WritePages", "WritePagesVec", "WriteVec":
			pass.Reportf(call.Pos(), "extent write-back (%s) outside internal/buffer and internal/storage: pages reach the device only through the buffer manager, after the WAL sync that covers them", op)
		}
		return true
	})
}
