// Package storageio classifies calls that perform storage-device I/O.
// It is shared by the lockio and walorder analyzers.
package storageio

import (
	"go/ast"
	"go/types"
	"strings"
)

// deviceMethods are the I/O methods of storage.Device, single-command
// and vectored.
var deviceMethods = map[string]bool{
	"ReadPages":     true,
	"WritePages":    true,
	"Sync":          true,
	"ReadPagesVec":  true,
	"WritePagesVec": true,
}

// pkgFuncs are the package-level vectored helpers in internal/storage.
var pkgFuncs = map[string]bool{
	"ReadVec":  true,
	"WriteVec": true,
}

// Classify reports whether call is a storage I/O operation, returning the
// operation name (e.g. "WritePages", "Sync", "ReadVec"). Matching is by
// shape — a method of the storage package's device types/interfaces, or a
// storage package-level vectored helper — so it works identically on the
// real engine (blobdb/internal/storage) and on test fixtures (a stub
// package named storage).
func Classify(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if selection := info.Selections[sel]; selection != nil {
		fn, ok := selection.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", false
		}
		if deviceMethods[name] && base(fn.Pkg().Path()) == "storage" {
			return name, true
		}
		return "", false
	}
	// Possibly a qualified package-function call: storage.ReadVec(...).
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	if pkgFuncs[name] && base(fn.Pkg().Path()) == "storage" {
		return name, true
	}
	return "", false
}

// walMethods are the record-mutation entry points on wal.Writer. They
// matter to the latching analyzers because an append can trigger a
// segment flush, and a flush can trigger a checkpoint — which snapshots
// engine state under the engine's own mutexes.
var walMethods = map[string]bool{
	"AppendLSN":  true,
	"Append":     true,
	"Flush":      true,
	"Checkpoint": true,
}

// ClassifyWAL reports whether call is a WAL-writer mutation (append,
// flush, or checkpoint on a Writer from a package named "wal"),
// returning the method name. Shape-matched like Classify, so fixture
// stubs work identically to the real internal/wal.
func ClassifyWAL(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !walMethods[sel.Sel.Name] {
		return "", false
	}
	selection := info.Selections[sel]
	if selection == nil {
		return "", false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if base(fn.Pkg().Path()) != "wal" || recvTypeName(fn) != "Writer" {
		return "", false
	}
	return sel.Sel.Name, true
}

// IsRefDeltaConst reports whether e references the RecRefDelta record
// type constant from a package named "wal" — the refcount ledger's WAL
// record, whose append sites the walorder analyzer restricts.
func IsRefDeltaConst(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Name() != "RecRefDelta" || c.Pkg() == nil {
		return false
	}
	return base(c.Pkg().Path()) == "wal"
}

// recvTypeName returns the name of a method's receiver type (pointer
// receivers dereferenced), or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// IsWrite reports whether op mutates or flushes the device.
func IsWrite(op string) bool {
	return op == "WritePages" || op == "WritePagesVec" || op == "WriteVec" || op == "Sync"
}

// Base returns the final element of an import path.
func Base(path string) string { return base(path) }

func base(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
