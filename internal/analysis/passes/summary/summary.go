// Package summary computes a per-function effect summary — the
// interprocedural substrate every other blobvet analyzer builds on. For
// each package-level function and method it records:
//
//   - the lock classes it acquires (and which classes are must-held at
//     each acquisition site — the intra-function ordering edges);
//   - every resolvable call it makes, with the lock classes must-held at
//     the call site (the inter-function ordering and I/O-context edges);
//   - the device I/O and WAL-writer mutations it performs directly;
//   - bindings of function-typed struct fields to concrete functions
//     (db.wal.OnCheckpoint = db.writeCheckpoint), which is how the WAL
//     calls back into the engine — the dynamic edge the lock-order
//     analyzer must see to find checkpoint reentry;
//   - whether it returns a caller-owned buffer-pool pin, and which of
//     its parameters it releases (the frame-helper contract).
//
// The analyzer reports nothing itself. It exports one FuncSummary fact
// per function with any effect, and the consuming analyzers (lockorder,
// lockio, walorder, framerelease) read the whole stream back through
// Pass.AllObjectFacts — enumeration, not per-object import, because the
// unexported dependency functions these chains run through do not exist
// as objects in gc export data.
//
// Must-held lock state is an intersection-merge CFG fixpoint (the same
// discipline lockio uses): a lock released on any path to a point is
// not held there, so the engine's lock-drop windows do not manufacture
// false edges. Function literals are skipped (they run later, under
// their own discipline), as are `go` statements (the child goroutine
// does not inherit the spawner's locks) and deferred calls (they run at
// return; a deferred Unlock conservatively keeps the lock held in the
// body, exactly the safe direction).
package summary

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"blobdb/internal/analysis"
	"blobdb/internal/analysis/cfg"
	"blobdb/internal/analysis/passes/internal/locks"
	"blobdb/internal/analysis/passes/internal/storageio"
)

var Analyzer = &analysis.Analyzer{
	Name: "summary",
	Doc: `compute per-function effect summaries for the interprocedural analyzers

Records, per function: lock classes acquired (with the classes held at
each acquisition), resolvable calls with the must-held lock set at each
call site, direct device/WAL effects, function-field bindings, and
the frame pin/release contract. Produces facts only; reports nothing.`,
	Run:       run,
	FactTypes: []analysis.Fact{(*FuncSummary)(nil)},
}

// A FuncSummary is the exported effect summary of one function. All
// positions are pre-rendered strings: token.Pos values are meaningless
// across type-check sessions (each vet unit has its own FileSet), while
// "file:line:col" survives any boundary and is only ever displayed.
type FuncSummary struct {
	Acquires []Acquire // lock classes this function itself acquires
	Calls    []Call    // resolvable calls, with must-held lock classes
	IO       []Effect  // direct device I/O
	WAL      []Effect  // direct WAL-writer mutation
	Binds    []Bind    // function-typed field bindings made here
	Unlocks  []string  // lock classes released without a local acquisition (caller-held drops)
	Pins     string    // non-empty: returns a pin from this Fix entry point
	Releases []int     // parameter indices this function releases
}

func (*FuncSummary) AFact() {}

func (s *FuncSummary) empty() bool {
	return len(s.Acquires) == 0 && len(s.Calls) == 0 && len(s.IO) == 0 &&
		len(s.WAL) == 0 && len(s.Binds) == 0 &&
		len(s.Unlocks) == 0 && s.Pins == "" && len(s.Releases) == 0
}

// An Acquire is one lock acquisition site.
type Acquire struct {
	Class string   // canonical lock class (locks.Class)
	RLock bool     // read side of an RWMutex
	Held  []string // classes must-held when this acquire runs (sorted, excl. Class)
	Pos   string
}

// A Call is one resolvable call site.
type Call struct {
	PkgPath string   // callee's package (for fields: the field owner's package)
	ObjPath string   // callee's ObjectPath; for fields: "Type.Field"
	Field   bool     // call through a function-typed struct field
	Held    []string // classes must-held at the call (sorted)
	Pos     string
}

// An Effect is one direct device or WAL operation.
type Effect struct {
	Op  string
	Pos string
}

// A Bind records `x.F = fn`: a function-typed field of a named struct
// bound to a concrete function, turning later calls through the field
// into edges to fn.
type Bind struct {
	FieldPkg  string // package of the field's owning type
	FieldPath string // "Type.Field"
	PkgPath   string // bound function's package
	ObjPath   string // bound function's ObjectPath
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil || analysis.ObjectPath(obj) == "" {
				continue
			}
			s := summarize(pass, fn)
			if !s.empty() {
				pass.ExportObjectFact(obj, s)
			}
		}
	}
	return nil, nil
}

func summarize(pass *analysis.Pass, fn *ast.FuncDecl) *FuncSummary {
	s := &FuncSummary{}
	c := &collector{pass: pass, s: s, seenCalls: map[string]bool{}, seenFx: map[string]bool{}, seenUnlocks: map[string]bool{}}

	g := cfg.New(fn.Body)
	if g == nil {
		// goto in the body: no flow-sensitive lock state; collect effects
		// with an empty (conservatively unknown) held set.
		c.walk(state{}, fn.Body)
	} else {
		// Must-held fixpoint, then one collection pass on the converged
		// per-block in-states (held sets only shrink during iteration, so
		// collecting earlier could record edges a later pass disproves).
		in := map[*cfg.Block]state{g.Entry: {}}
		work := []*cfg.Block{g.Entry}
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			st := in[b].clone()
			for _, n := range b.Nodes {
				c.apply(st, n, false)
			}
			for _, e := range b.Succs {
				if merged, changed := intersect(in[e.To], st.clone()); changed {
					in[e.To] = merged
					work = append(work, e.To)
				}
			}
		}
		for _, b := range g.Blocks {
			st := in[b]
			if st == nil {
				continue
			}
			st = st.clone()
			for _, n := range b.Nodes {
				c.apply(st, n, true)
			}
		}
	}

	c.scanBinds(fn.Body)
	c.scanPinContract(fn)
	sort.Strings(s.Unlocks)
	sort.Slice(s.Releases, func(i, j int) bool { return s.Releases[i] < s.Releases[j] })
	return s
}

// state is the set of lock classes must-held at a point.
type state map[string]bool

func (s state) clone() state {
	c := make(state, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s state) sorted(excl string) []string {
	var out []string
	for k := range s {
		if k != excl {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// intersect merges a successor's incoming state for a must-analysis;
// reports whether old changed. old == nil means unvisited.
func intersect(old, add state) (state, bool) {
	if old == nil {
		return add, true
	}
	changed := false
	for k := range old {
		if !add[k] {
			delete(old, k)
			changed = true
		}
	}
	return old, changed
}

type collector struct {
	pass        *analysis.Pass
	s           *FuncSummary
	seenCalls   map[string]bool
	seenFx      map[string]bool
	seenUnlocks map[string]bool
}

func (c *collector) pos(n ast.Node) string {
	return c.pass.Fset.Position(n.Pos()).String()
}

// apply threads one CFG node through the lock state; when record is set
// it also collects acquires, effects, and call sites.
func (c *collector) apply(st state, n ast.Node, record bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // runs later, under its own discipline
		case *ast.DeferStmt:
			return false // runs at return; a deferred Unlock keeps the lock held here
		case *ast.GoStmt:
			return false // the goroutine does not inherit the spawner's locks
		case *ast.CallExpr:
			c.call(st, m, record)
		}
		return true
	})
}

// walk is the no-CFG fallback (goto in the body): same collection with
// flow-insensitive (empty) held sets.
func (c *collector) walk(st state, body ast.Node) {
	c.apply(st, body, true)
}

func (c *collector) call(st state, call *ast.CallExpr, record bool) {
	if op, ok := locks.Match(c.pass.TypesInfo, call); ok {
		if op.Class == "" {
			return // local mutex: invisible interprocedurally
		}
		switch op.Name {
		case "Lock", "RLock":
			if record {
				c.s.Acquires = append(c.s.Acquires, Acquire{
					Class: op.Class,
					RLock: op.Name == "RLock",
					Held:  st.sorted(op.Class),
					Pos:   c.pos(call),
				})
			}
			st[op.Class] = true
		case "Unlock", "RUnlock":
			if record && !st[op.Class] && !c.seenUnlocks[op.Class] {
				// Releasing a lock this body never must-acquired: the lock
				// belongs to the caller. That is the claim/unlock/write-back/
				// relock protocol's signature, and lockio uses it to tell a
				// conforming lock-drop helper from I/O smuggled under a latch.
				c.seenUnlocks[op.Class] = true
				c.s.Unlocks = append(c.s.Unlocks, op.Class)
			}
			delete(st, op.Class)
		}
		return
	}
	if !record {
		return
	}
	if op, ok := storageio.Classify(c.pass.TypesInfo, call); ok {
		c.addEffect(&c.s.IO, "io", Effect{Op: op, Pos: c.pos(call)})
		// Fall through: an effect call is still a call. wal.Writer.AppendLSN
		// is classified as a WAL effect for walorder, but it is also the
		// entry to the append→flush→checkpoint chain lockorder must walk.
	} else if op, ok := storageio.ClassifyWAL(c.pass.TypesInfo, call); ok {
		c.addEffect(&c.s.WAL, "wal", Effect{Op: op, Pos: c.pos(call)})
	}
	pkg, path, field, ok := callee(c.pass, call)
	if !ok {
		return
	}
	key := pkg + "\x00" + path + "\x00" + strings.Join(st.sorted(""), ",")
	if c.seenCalls[key] {
		return
	}
	c.seenCalls[key] = true
	c.s.Calls = append(c.s.Calls, Call{
		PkgPath: pkg,
		ObjPath: path,
		Field:   field,
		Held:    st.sorted(""),
		Pos:     c.pos(call),
	})
}

func (c *collector) addEffect(dst *[]Effect, kind string, fx Effect) {
	key := kind + "\x00" + fx.Op
	if c.seenFx[key] {
		return
	}
	c.seenFx[key] = true
	*dst = append(*dst, fx)
}

// Resolve maps a call to the fact address of its static callee — a
// package-level function or a method of a package-level named type.
// Calls through function-typed fields are not resolved here (lockorder
// walks those through Binds). Shared by every summary consumer that
// needs to look a call site up in the fact stream.
func Resolve(info *types.Info, call *ast.CallExpr) (pkg, path string, ok bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if selection := info.Selections[fun]; selection != nil {
			obj = selection.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	fn, isFn := obj.(*types.Func)
	if !isFn {
		return "", "", false
	}
	pkg, path, _, ok = factAddr(fn)
	return pkg, path, ok
}

// callee resolves a call to a fact-addressable target: a package-level
// function, a method of a package-level named type, or a function-typed
// field of one (Field=true; lockorder resolves those through Binds).
func callee(pass *analysis.Pass, call *ast.CallExpr) (pkg, path string, field, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, k := pass.TypesInfo.Uses[fun].(*types.Func); k {
			return factAddr(fn)
		}
	case *ast.SelectorExpr:
		if selection := pass.TypesInfo.Selections[fun]; selection != nil {
			switch obj := selection.Obj().(type) {
			case *types.Func:
				return factAddr(obj)
			case *types.Var:
				// Call through a function-typed field: w.OnCheckpoint(...).
				if !obj.IsField() {
					return "", "", false, false
				}
				tn := namedOf(pass.TypesInfo.TypeOf(fun.X))
				if tn == nil || tn.Pkg() == nil {
					return "", "", false, false
				}
				return tn.Pkg().Path(), tn.Name() + "." + obj.Name(), true, true
			}
			return "", "", false, false
		}
		if fn, k := pass.TypesInfo.Uses[fun.Sel].(*types.Func); k {
			return factAddr(fn) // qualified package function
		}
	}
	return "", "", false, false
}

func factAddr(fn *types.Func) (string, string, bool, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() == "sync" {
		return "", "", false, false
	}
	p := analysis.ObjectPath(fn)
	if p == "" {
		return "", "", false, false
	}
	return fn.Pkg().Path(), p, false, true
}

// scanBinds records every `x.F = fn` where F is a function-typed field
// of a named struct and fn resolves to a fact-addressable function.
// Closures are scanned too: a binding made inside one is still a
// binding the program performs.
func (c *collector) scanBinds(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			fv, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
			if !ok || !fv.IsField() {
				continue
			}
			if _, isSig := fv.Type().Underlying().(*types.Signature); !isSig {
				continue
			}
			tn := namedOf(c.pass.TypesInfo.TypeOf(sel.X))
			if tn == nil || tn.Pkg() == nil {
				continue
			}
			var bound *types.Func
			switch rhs := as.Rhs[i].(type) {
			case *ast.Ident:
				bound, _ = c.pass.TypesInfo.Uses[rhs].(*types.Func)
			case *ast.SelectorExpr:
				if s2 := c.pass.TypesInfo.Selections[rhs]; s2 != nil {
					bound, _ = s2.Obj().(*types.Func) // method value db.writeCheckpoint
				} else {
					bound, _ = c.pass.TypesInfo.Uses[rhs.Sel].(*types.Func)
				}
			}
			if bound == nil {
				continue
			}
			bp, bpath, _, ok := factAddr(bound)
			if !ok {
				continue
			}
			c.s.Binds = append(c.s.Binds, Bind{
				FieldPkg:  tn.Pkg().Path(),
				FieldPath: tn.Name() + "." + fv.Name(),
				PkgPath:   bp,
				ObjPath:   bpath,
			})
		}
		return true
	})
}

// scanPinContract fills Pins and Releases: does this function hand a
// buffer-pool pin to its caller, and which parameters does it release?
// Both are deliberately syntactic — helpers that wrap FixExtent or drop
// frames are one-screen functions; a helper too clever for this scan is
// a helper the framerelease contract wants rewritten anyway.
func (c *collector) scanPinContract(fn *ast.FuncDecl) {
	info := c.pass.TypesInfo

	// fixVars: variables bound to a Fix-family result in this body.
	fixVars := map[types.Object]string{}
	released := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					if name, ok := fixFamilyCall(c.pass, call); ok {
						if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							if obj := objOf(info, id); obj != nil {
								fixVars[obj] = name
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(n.Args) == 0 {
				switch x := sel.X.(type) {
				case *ast.Ident:
					if obj := info.Uses[x]; obj != nil {
						released[obj] = true
					}
				case *ast.IndexExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							released[obj] = true // frames[i].Release() in a loop
						}
					}
				}
			}
		}
		return true
	})

	// Pins: a return statement hands back a Fix result (directly, or via a
	// variable the body never releases).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if call, ok := r.(*ast.CallExpr); ok {
				if name, ok := fixFamilyCall(c.pass, call); ok {
					c.s.Pins = name
				}
				continue
			}
			if id, ok := r.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if name, fixed := fixVars[obj]; fixed && !released[obj] {
						c.s.Pins = name
					}
				}
			}
		}
		return true
	})

	// Releases: parameters (by index) released in this body, including
	// range-releases over slice parameters.
	idx := 0
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				obj := info.Defs[name]
				if obj != nil && (released[obj] || rangeReleasesParam(info, fn.Body, obj)) {
					c.s.Releases = append(c.s.Releases, idx)
				}
				idx++
			}
			if len(f.Names) == 0 {
				idx++
			}
		}
	}
}

// rangeReleasesParam reports whether the body contains
// `for _, v := range param { ... v.Release() ... }`.
func rangeReleasesParam(info *types.Info, body *ast.BlockStmt, param types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok || found {
			return !found
		}
		if id, ok := r.X.(*ast.Ident); !ok || info.Uses[id] != param {
			return true
		}
		valID, ok := r.Value.(*ast.Ident)
		if !ok {
			return true
		}
		valObj := info.Defs[valID]
		ast.Inspect(r.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				if id, ok := sel.X.(*ast.Ident); ok && info.Uses[id] == valObj {
					found = true
				}
			}
			return true
		})
		return true
	})
	return found
}

// fixFamilyCall matches Pool.FixExtent / FixExtents / CreateExtent from
// a buffer-pool package other than the one under analysis (the pool's
// own internals manage pins below the Fix contract), two results.
func fixFamilyCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "FixExtent" && name != "FixExtents" && name != "CreateExtent" {
		return "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil {
		return "", false
	}
	m, ok := selection.Obj().(*types.Func)
	if !ok || m.Pkg() == nil || m.Pkg() == pass.Pkg {
		return "", false
	}
	if storageio.Base(m.Pkg().Path()) != "buffer" {
		return "", false
	}
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 2 {
		return "", false
	}
	return name, true
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func namedOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
