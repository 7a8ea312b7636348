package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"blobdb/internal/storage"
)

// TestInstall drives the transfer primitive through each of its cases on
// a fresh engine: what the source is asked for, what lands at the key,
// that no extent leaks, and that the refcount ledger holds before and
// after recovery.
func TestInstall(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	content := make([]byte, 300<<10)
	rng.Read(content)
	other := make([]byte, 5000)
	rng.Read(other)
	corrupt := append([]byte(nil), content...)
	corrupt[len(corrupt)/2] ^= 0xff
	sum := sha256.Sum256(content)
	want := Row{Blob: true, ETag: hex.EncodeToString(sum[:]), Size: uint64(len(content))}

	cases := []struct {
		name    string
		before  map[string][]byte // BLOBs committed before the install
		row     Row
		send    []byte // what the source streams; nil: it must not be called
		vanish  bool   // the source holds nothing
		want    Transfer
		wantErr string // substring of the expected error
		after   []byte // BLOB content at "k" afterwards; nil: no BLOB
	}{
		{name: "same key same etag", before: map[string][]byte{"k": content}, row: want, want: TransferUnchanged, after: content},
		{name: "adopt from another key", before: map[string][]byte{"a": content}, row: want, want: TransferAdopted, after: content},
		{name: "stream", row: want, send: content, want: TransferCopied, after: content},
		{name: "etag mismatch", before: map[string][]byte{"a": other}, row: want, send: corrupt, wantErr: "installed etag"},
		{name: "short body", row: want, send: content[:len(content)/2], wantErr: "source sent"},
		{name: "vanished", row: want, vanish: true, want: TransferVanished},
		{name: "inline", row: Row{Inline: []byte("inline value")}, want: TransferCopied},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOpts()
			o.Dev = storage.NewMemDevice(ps, 1<<14, nil)
			db := openTest(t, o)
			db.CreateRelation("r")
			for k, v := range tc.before {
				putCommitted(t, db, "r", []byte(k), v)
			}
			live := db.Allocator().Stats().LivePages
			calls := 0
			src := func(fn ContentFn) error {
				calls++
				switch {
				case tc.vanish:
					return ErrBlobVanished
				case tc.send == nil:
					t.Error("source called for content the engine holds")
				}
				return fn(tc.row.ETag, tc.row.Size, bytes.NewReader(tc.send))
			}

			tx := db.Begin(nil)
			got, err := tx.Install("r", []byte("k"), tc.row, src)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Install = %v, want an error containing %q", err, tc.wantErr)
				}
				tx.Abort()
			} else {
				if err != nil || got != tc.want {
					t.Fatalf("Install = %v, %v; want %v", got, err, tc.want)
				}
				mustCommit(t, tx)
			}
			if (tc.send != nil || tc.vanish) != (calls == 1) {
				t.Errorf("source called %d times", calls)
			}
			if tc.want != TransferCopied || tc.wantErr != "" {
				// Nothing streamed in: the allocator holds exactly what it
				// held before (a share or a rolled-back stream adds no page).
				if now := db.Allocator().Stats().LivePages; now != live {
					t.Errorf("live pages %d -> %d", live, now)
				}
			}
			check := func(db *DB, when string) {
				t.Helper()
				if err := db.CheckLedger(); err != nil {
					t.Errorf("%s: CheckLedger: %v", when, err)
				}
				tx := db.Begin(nil)
				defer tx.Commit()
				b, err := tx.ReadBlobBytes("r", []byte("k"))
				switch {
				case tc.after == nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotBlob) && !errors.Is(err, ErrRelationNotFound):
					t.Errorf("%s: key holds a BLOB (err %v), want none", when, err)
				case tc.after != nil && (err != nil || !bytes.Equal(b, tc.after)):
					t.Errorf("%s: key holds %d bytes (err %v), want %d", when, len(b), err, len(tc.after))
				}
				if !tc.row.Blob {
					if v, err := tx.Get("r", []byte("k")); err != nil || !bytes.Equal(v, tc.row.Inline) {
						t.Errorf("%s: inline value %q, %v", when, v, err)
					}
				}
			}
			check(db, "live")
			db2, _ := crashAndRecover(t, o)
			check(db2, "recovered")
		})
	}
}

// TestInstallCounts: the engine's TransferStats count one outcome per
// Install and only the bytes read from a source.
func TestInstallCounts(t *testing.T) {
	db := openTest(t, testOpts())
	db.CreateRelation("r")
	content := bytes.Repeat([]byte("transfer"), 4096)
	putCommitted(t, db, "r", []byte("a"), content)
	tx := db.Begin(nil)
	st, err := tx.BlobState("r", []byte("a"))
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	src := func(fn ContentFn) error {
		return fn(st.ETag(), st.Size, bytes.NewReader(content))
	}
	for _, key := range []string{"a", "b"} { // unchanged, then adopted
		if _, err := db.Install(nil, "r", []byte(key), RowOf(nil, st), src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Install(nil, "r", []byte("i"), Row{Inline: []byte("xyz")}, src); err != nil {
		t.Fatal(err)
	}
	gone := func(ContentFn) error { return ErrBlobVanished }
	if _, err := db.Install(nil, "r", []byte("c"), Row{Blob: true, ETag: "00", Size: 1}, gone); err != nil {
		t.Fatal(err)
	}
	got := db.TransferStats()
	want := TransferStats{Outcomes: [4]uint64{1, 1, 1, 1}, CopiedBytes: 3}
	if got != want {
		t.Fatalf("TransferStats = %+v, want %+v", got, want)
	}
}
