package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"

	"blobdb/internal/ycsb"
)

// spec fixes one workload. Every input the engine sees is generated from
// the run's seed by the types in this file.
type spec struct {
	name string
	// logDiv sizes the WAL at 1/logDiv of the device.
	logDiv uint64
	// keys is the data-set size. With owned set, each client owns an
	// equal, disjoint slice of the keys and is the only one to touch them.
	keys  int
	owned bool
	// minSize and maxSize bound the log-uniform size draw; equal values
	// give a fixed size.
	minSize, maxSize int
	zipf             bool
	// putFrac and delFrac split the timed op stream; the rest are GETs.
	// dedupFrac is the share of PUTs that repeat another owned key's
	// current content.
	putFrac, delFrac, dedupFrac float64
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

var workloads = map[string]spec{
	// Fits the pool: exercises request CPU, pool hits and aliased views
	// while the device, the WAL and the commit pipeline stay idle.
	"read-hot": {name: "read-hot", logDiv: 16, keys: 512, minSize: 4 * kib, maxSize: 256 * kib, zipf: true},
	// Six times the pool: every GET is likely a miss, so eviction, batched
	// extent loads and FileDevice reads dominate.
	"read-cold": {name: "read-cold", logDiv: 16, keys: 1536, minSize: 256 * kib, maxSize: 256 * kib},
	// Overwrite/delete churn over a live set larger than the pool: the
	// streaming writer, group commit, WAL syncs, checkpoints, extent flush,
	// dedup and allocator reuse. Its log is 1/256 of the device; see
	// engineOptions.
	"write-churn": {name: "write-churn", logDiv: 256, keys: 512, owned: true, minSize: 4 * kib, maxSize: mib, zipf: true,
		putFrac: 0.55, delFrac: 0.15, dedupFrac: 0.2},
}

// relation is the one relation every workload stores its keys in.
const relation = "bench"

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// mix folds values into one well-spread 64-bit seed (splitmix64 steps).
func mix(vals ...uint64) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		x ^= v
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		x = z ^ (z >> 31)
	}
	return x
}

func newRand(vals ...uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(vals...) >> 1)))
}

// dataset is the generated key population: sizes, the popularity order,
// and the random bytes every blob's content is cut from.
type dataset struct {
	spec    spec
	clients int
	sizes   []int
	// byRank[c][r] is the key of popularity rank r in client c's key
	// range (all keys when the workload is not owned).
	byRank [][]int
	pool   []byte
}

// newDataset draws the key population for seed. Sizes are stratified: the
// key of popularity rank r gets the log-uniform quantile frac(0.5 + r*phi)
// plus a seed-drawn jitter within its stratum. Every seed therefore has
// the same size-by-popularity profile and differs only in which key holds
// which rank, the jitter, the content and the op order; a plain random
// draw would let the size of the few hottest keys decide a run's GET
// throughput.
func newDataset(sp spec, seed uint64, clients int) *dataset {
	rng := newRand(seed, 1)
	d := &dataset{spec: sp, clients: clients, sizes: make([]int, sp.keys)}
	perClient := sp.keys
	groups := 1
	if sp.owned {
		perClient = sp.keys / clients
		groups = clients
	}
	const phi = 0.6180339887498949
	for g := 0; g < groups; g++ {
		base := g * perClient
		perm := rng.Perm(perClient)
		ranks := make([]int, perClient)
		for r := range ranks {
			k := base + perm[r]
			ranks[r] = k
			q := math.Mod(0.5+float64(r)*phi+rng.Float64()/float64(perClient), 1)
			lo, hi := math.Log(float64(sp.minSize)), math.Log(float64(sp.maxSize))
			d.sizes[k] = int(math.Round(math.Exp(lo + q*(hi-lo))))
		}
		d.byRank = append(d.byRank, ranks)
	}
	if !sp.owned {
		for c := 1; c < clients; c++ {
			d.byRank = append(d.byRank, d.byRank[0])
		}
	}
	// Content is a 16-byte header naming (key, version) followed by a
	// window of this pool, so distinct versions never share a SHA-256 and
	// a dedup PUT repeats a source's exact bytes.
	d.pool = make([]byte, 4*mib+sp.maxSize)
	prng := newRand(seed, 2)
	for i := 0; i+8 <= len(d.pool); i += 8 {
		binary.LittleEndian.PutUint64(d.pool[i:], prng.Uint64())
	}
	return d
}

// totalBytes is the data set's size: the bytes the load PUTs.
func (d *dataset) totalBytes() int64 {
	var n int64
	for _, s := range d.sizes {
		n += int64(s)
	}
	return n
}

// loadKeys returns the keys client c stores during set-up.
func (d *dataset) loadKeys(c int) []int {
	var ks []int
	for k := 0; k < d.spec.keys; k++ {
		if d.owner(k) == c {
			ks = append(ks, k)
		}
	}
	return ks
}

// owner is the client that loads key k (and, in owned workloads, the only
// client that ever touches it).
func (d *dataset) owner(k int) int {
	if d.spec.owned {
		return k / (d.spec.keys / d.clients)
	}
	return k % d.clients
}

// content identifies one blob body: the header names the key and version
// it was first written under.
type content struct {
	key, version, size int
}

const headerLen = 16

func (d *dataset) reader(ct content) io.Reader {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0x626e6368)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ct.key))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(ct.version))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(ct.size))
	off := int(mix(uint64(ct.key), uint64(ct.version)) % uint64(len(d.pool)-ct.size))
	return io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(d.pool[off:off+ct.size-headerLen]))
}

func (d *dataset) etag(ct content) string {
	h := sha256.New()
	io.Copy(h, d.reader(ct))
	return hex.EncodeToString(h.Sum(nil))
}

// keyState is what the generator last had acknowledged for one key.
type keyState struct {
	live    bool
	content content
	etag    string
}

// opKind is one request type.
type opKind int

const (
	opGet opKind = iota
	opPut
	opDelete
)

func (k opKind) String() string { return [...]string{"GET", "PUT", "DELETE"}[k] }

// op is one generated request. For a PUT, want is the content to store
// and etag its SHA-256.
type op struct {
	kind opKind
	key  int
	want content
	etag string
}

// stream generates one client's closed-loop op sequence. It reads the
// acknowledged state, so a DELETE is only drawn for a live key (a drawn
// DELETE of a deleted key recreates it instead) and a dedup PUT copies a
// live key; every generated operation is therefore expected to succeed.
type stream struct {
	d       *dataset
	client  int
	rng     *rand.Rand
	zipf    *ycsb.Workload
	state   []keyState
	version int
}

// newStream seeds client c's stream. salt selects the op sequence (the
// engine-API pass reuses the traced phase's salt to replay its ops) and
// vspace the content versions, which are unique per (phase, client) so
// no two PUTs of a run write the same bytes unless they are meant to
// dedup.
func newStream(d *dataset, state []keyState, seed uint64, c int, salt uint64, vspace int) *stream {
	s := &stream{d: d, client: c, rng: newRand(seed, 3, uint64(c), salt), state: state}
	if d.spec.zipf {
		// Same zipfian (s = 1.1) generator the YCSB workloads use.
		s.zipf = ycsb.New(len(d.byRank[c]), 1, ycsb.Payload120B, int64(mix(seed, 4, uint64(c), salt)>>1))
	}
	s.version = vspace<<24 + c<<20
	return s
}

func (s *stream) pickKey() int {
	ranks := s.d.byRank[s.client]
	if s.zipf != nil {
		return ranks[s.zipf.NextKey()]
	}
	return ranks[s.rng.Intn(len(ranks))]
}

func (s *stream) next() op {
	k := s.pickKey()
	sp := s.d.spec
	x := s.rng.Float64()
	switch {
	case x < sp.putFrac:
		return s.put(k)
	case x < sp.putFrac+sp.delFrac:
		if !s.state[k].live {
			return s.put(k)
		}
		return op{kind: opDelete, key: k}
	}
	return op{kind: opGet, key: k}
}

func (s *stream) put(k int) op {
	if s.rng.Float64() < s.d.spec.dedupFrac {
		ranks := s.d.byRank[s.client]
		for try := 0; try < 8; try++ {
			src := ranks[s.rng.Intn(len(ranks))]
			if src != k && s.state[src].live {
				return op{kind: opPut, key: k, want: s.state[src].content, etag: s.state[src].etag}
			}
		}
	}
	s.version++
	ct := content{key: k, version: s.version, size: s.d.sizes[k]}
	return op{kind: opPut, key: k, want: ct, etag: s.d.etag(ct)}
}
