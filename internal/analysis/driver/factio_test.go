package driver_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blobdb/internal/analysis/driver"
	"blobdb/internal/analysis/passes/summary"
)

// TestFactRoundTrip is a property test over the gob wire path: randomly
// generated FuncSummary facts — the deepest structures any analyzer
// ships, nested slices of structs with every field class the summary
// pass produces — must survive WriteFacts → ReadFacts byte-exact across
// an arbitrary mix of packages and object paths.
//
// The one representable shape the generator must avoid is an allocated
// empty slice: gob transmits nil and empty slices identically and
// decodes both as nil, so a fact holding []T{} would "round-trip" to a
// DeepEqual-different value. The summary pass only ever appends to nil
// slices, so the wire format never carries the distinction; the
// generator mirrors that by leaving empty fields nil.
func TestFactRoundTrip(t *testing.T) {
	gob.Register(&summary.FuncSummary{})
	rng := rand.New(rand.NewSource(0x5eed))

	for trial := 0; trial < 200; trial++ {
		in := driver.NewFacts()
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			key := driver.FactKey{
				Analyzer: "summary",
				PkgPath:  randPkg(rng),
				ObjPath:  randObjPath(rng),
			}
			in.Put(key, randSummary(rng))
		}

		var buf bytes.Buffer
		if err := driver.WriteFacts(in, &buf); err != nil {
			t.Fatalf("trial %d: WriteFacts: %v", trial, err)
		}
		out := driver.NewFacts()
		if err := driver.ReadFacts(out, &buf); err != nil {
			t.Fatalf("trial %d: ReadFacts: %v", trial, err)
		}

		keys, values := in.All()
		gotKeys, gotValues := out.All()
		if !reflect.DeepEqual(keys, gotKeys) {
			t.Fatalf("trial %d: keys changed across the wire:\n in: %v\nout: %v", trial, keys, gotKeys)
		}
		for i := range keys {
			if !reflect.DeepEqual(values[i], gotValues[i]) {
				t.Fatalf("trial %d: fact %v changed across the wire:\n in: %+v\nout: %+v",
					trial, keys[i], values[i], gotValues[i])
			}
		}
	}
}

// TestFactRoundTripMergeAcrossStreams checks the transitive-import
// contract: a downstream reader merges several dependencies' streams
// into one store, and a later stream may overwrite an earlier entry
// (the re-export of a dependency's fact by a closer package wins, which
// is how the unitchecker's full-view files behave).
func TestFactRoundTripMergeAcrossStreams(t *testing.T) {
	gob.Register(&summary.FuncSummary{})
	rng := rand.New(rand.NewSource(0xfac7))

	shared := driver.FactKey{Analyzer: "summary", PkgPath: "blobdb/internal/wal", ObjPath: "Manager.writeOut"}
	first := randSummary(rng)
	second := randSummary(rng)

	var bufA, bufB bytes.Buffer
	a := driver.NewFacts()
	a.Put(shared, first)
	if err := driver.WriteFacts(a, &bufA); err != nil {
		t.Fatal(err)
	}
	b := driver.NewFacts()
	b.Put(shared, second)
	if err := driver.WriteFacts(b, &bufB); err != nil {
		t.Fatal(err)
	}

	merged := driver.NewFacts()
	if err := driver.ReadFacts(merged, &bufA); err != nil {
		t.Fatal(err)
	}
	if err := driver.ReadFacts(merged, &bufB); err != nil {
		t.Fatal(err)
	}
	var got summary.FuncSummary
	if !merged.Get(shared, &got) {
		t.Fatal("merged store lost the shared fact")
	}
	if !reflect.DeepEqual(&got, second) {
		t.Fatalf("later stream should win:\nwant %+v\ngot  %+v", second, &got)
	}
}

func randPkg(rng *rand.Rand) string {
	pkgs := []string{
		"blobdb/internal/wal", "blobdb/internal/core", "blobdb/internal/buffer",
		"blobdb/internal/storage", "blobdb/internal/maint",
	}
	return pkgs[rng.Intn(len(pkgs))]
}

func randObjPath(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("fn%d", rng.Intn(1000))
	}
	return fmt.Sprintf("T%d.m%d", rng.Intn(50), rng.Intn(50))
}

func randClass(rng *rand.Rand) string {
	return fmt.Sprintf("blobdb/internal/p%d.T.mu%d", rng.Intn(9), rng.Intn(9))
}

func randStrings(rng *rand.Rand, max int) []string {
	n := rng.Intn(max + 1)
	var out []string // nil when empty: the wire cannot carry []string{}
	for i := 0; i < n; i++ {
		out = append(out, randClass(rng))
	}
	return out
}

func randPos(rng *rand.Rand) string {
	return fmt.Sprintf("file%d.go:%d:%d", rng.Intn(9), rng.Intn(500)+1, rng.Intn(80)+1)
}

func randSummary(rng *rand.Rand) *summary.FuncSummary {
	s := &summary.FuncSummary{}
	for i := rng.Intn(4); i > 0; i-- {
		s.Acquires = append(s.Acquires, summary.Acquire{
			Class: randClass(rng), RLock: rng.Intn(2) == 0,
			Held: randStrings(rng, 3), Pos: randPos(rng),
		})
	}
	for i := rng.Intn(5); i > 0; i-- {
		s.Calls = append(s.Calls, summary.Call{
			PkgPath: randPkg(rng), ObjPath: randObjPath(rng),
			Field: rng.Intn(4) == 0, Held: randStrings(rng, 2), Pos: randPos(rng),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.IO = append(s.IO, summary.Effect{Op: "WritePages", Pos: randPos(rng)})
	}
	for i := rng.Intn(2); i > 0; i-- {
		s.WAL = append(s.WAL, summary.Effect{Op: "AppendLSN", Pos: randPos(rng)})
	}
	for i := rng.Intn(2); i > 0; i-- {
		s.Binds = append(s.Binds, summary.Bind{
			FieldPkg: randPkg(rng), FieldPath: "Manager.OnCheckpoint",
			PkgPath: randPkg(rng), ObjPath: randObjPath(rng),
		})
	}
	s.Unlocks = randStrings(rng, 2)
	if rng.Intn(3) == 0 {
		s.Pins = []string{"FixExtent", "FixExtents", "CreateExtent"}[rng.Intn(3)]
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Releases = append(s.Releases, rng.Intn(5))
	}
	return s
}
