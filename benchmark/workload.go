//go:build linux

package main

import "math"

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opIncr
	opMultiGet
)

var opNames = [...]string{opGet: "get", opSet: "set", opIncr: "incr", opMultiGet: "multiget"}

// spec is one workload: a traffic mix the server only ever sees as bytes.
// Everything the generator and the verifier need is a function of the spec
// and the seed.
type spec struct {
	name string
	why  string // one line for BENCHMARK.json and the README

	binary    bool   // binary protocol (text otherwise)
	depth     int    // commands per round: written with one flush, then all replies read
	keys      int    // key space
	zipf      bool   // zipfian(0.99) popularity over the key space (uniform otherwise)
	writes    int    // of every 10 commands, how many are writeKind
	writeKind opKind // opSet or opIncr
	readKind  opKind // opGet or opMultiGet
	multi     int    // keys per opMultiGet command
	valMin    int    // value size; valMin == valMax is a fixed size,
	valMax    int    // otherwise per-key log-uniform in [valMin, valMax]
	counters  bool   // values are decimal counters starting at 0 (hot_incr)
	memMB     int    // server -m
	fits      bool   // working set fits in memMB, so a miss is a failure
	// prefillBytes, when non-zero, stops the prefill once this many value
	// bytes were stored instead of storing every key (evict_write: the cache
	// only has to be full, not to have seen the whole key space).
	prefillBytes int
}

// workloads are the benchmark. Names are final: BENCHMARK.json, the README
// and later issues cite them.
var workloads = []*spec{
	{
		name:   "memslap_bin",
		why:    "the paper's memslap run: binary, 9:1 get:set, 1 KiB values, depth 1; every op pays a wake-up, two syscalls and a flush, so the server layer does almost all the work",
		binary: true, depth: 1, keys: 10_000, writes: 1, writeKind: opSet, readKind: opGet,
		valMin: 1024, valMax: 1024, memMB: 256, fits: true,
	},
	{
		name:  "pipe_text_small",
		why:   "text, depth 32, 64 B values, zipfian keys: syscalls amortised 32x, so per-command parse/format/alloc in protocol and the read path in engine/stm dominate",
		depth: 32, keys: 100_000, zipf: true, writes: 1, writeKind: opSet, readKind: opGet,
		valMin: 64, valMax: 64, memMB: 256, fits: true,
	},
	{
		name:  "multiget_text",
		why:   "text get of 24 keys per command, depth 1, 256 B values: batched read-only transactions and the gathered-write reply path, so a single-get gain that costs the batch path shows",
		depth: 1, keys: 50_000, writes: 0, writeKind: opSet, readKind: opMultiGet, multi: 24,
		valMin: 256, valMax: 256, memMB: 256, fits: true,
	},
	{
		name:  "evict_write",
		why:   "text, depth 8, 1:1 set:get, 64 B-8 KiB values, working set ~10x the 64 MiB cache: slab allocation, LRU eviction, the rebalancer and large write sets do the work",
		depth: 8, keys: 400_000, writes: 5, writeKind: opSet, readKind: opGet,
		valMin: 64, valMax: 8192, memMB: 64, prefillBytes: 96 << 20,
	},
	{
		name:  "hot_incr",
		why:   "text, depth 64, 7:3 incr:get over 4 zipfian counters: server workers write the same orecs, so stm conflict handling does the work (the paper's serialization regime)",
		depth: 64, keys: 4, zipf: true, writes: 7, writeKind: opIncr, readKind: opGet,
		counters: true, memMB: 64, fits: true,
	},
}

func findWorkload(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Keys and values: both are functions of the key index alone, so a reply can
// be verified by any client against any server version.

const keyLen = 14 // "key:" + 10 digits

func appendKey(dst []byte, idx int) []byte {
	dst = append(dst, "key:0000000000"...)
	for p := len(dst) - 1; idx > 0; p-- {
		dst[p] = byte('0' + idx%10)
		idx /= 10
	}
	return dst
}

// keyIndex is the inverse of appendKey; -1 for anything else.
func keyIndex(key []byte) int {
	if len(key) != keyLen || string(key[:4]) != "key:" {
		return -1
	}
	n, ok := atoi(key[4:])
	if !ok {
		return -1
	}
	return n
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pattern is the pool every value is a window of: printable bytes from a
// fixed stream. A value is pattern[off:off+size] with off and size derived
// from the key, so verifying a payload is one comparison and encoding a set
// is one copy.
var pattern = func() []byte {
	p := make([]byte, 64<<10)
	s := uint64(0x7A6B5C4D3E2F1001)
	for i := range p {
		s = mix64(s)
		p[i] = byte('!' + s%94)
	}
	return p
}()

// valueSize is fixed or log-uniform per key.
func (sp *spec) valueSize(idx int) int {
	if sp.valMin == sp.valMax {
		return sp.valMin
	}
	u := float64(mix64(uint64(idx)<<1|1)>>11) / (1 << 53)
	n := int(float64(sp.valMin) * math.Pow(float64(sp.valMax)/float64(sp.valMin), u))
	if n > sp.valMax {
		n = sp.valMax
	}
	return n
}

// value returns the payload stored under key idx (not for counters).
func (sp *spec) value(idx int) []byte {
	n := sp.valueSize(idx)
	off := int(mix64(uint64(idx)<<1) % uint64(len(pattern)-sp.valMax))
	return pattern[off : off+n]
}

// keyFlags is the client flags word stored with key idx.
func keyFlags(idx int) uint32 { return uint32(mix64(uint64(idx)) & 0xffff) }

// ---------------------------------------------------------------------------
// Random streams.

// rng is xorshift64*, seeded through mix64 so neighbouring seeds diverge.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	s := mix64(seed)
	if s == 0 {
		s = 1
	}
	return rng{s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfian is the YCSB ZipfianGenerator (Gray et al., "Quickly generating
// billion-record synthetic databases"): rank 0 is the most popular item.
type zipfian struct {
	n, theta, alpha, zetan, eta, half float64
}

const zipfTheta = 0.99

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: float64(n), theta: theta, zetan: zeta(n), alpha: 1 / (1 - theta)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// scatter is a prime larger than any key space here, so rank*scatter mod n
// is a bijection that spreads the hot ranks over the key space (YCSB's
// "scrambled" zipfian) and thereby over hash buckets and shards.
const scatter = 2654435761

// ---------------------------------------------------------------------------
// The op stream.

// cmd is one command of a round and what its reply has to be checked against.
type cmd struct {
	kind   opKind
	key    int    // key index (opMultiGet: the keys are round.keys[off:off+n])
	off, n int    // opMultiGet only
	opaque uint32 // binary protocol: echoed by the server
}

// round is depth commands written with one flush.
type round struct {
	req  []byte
	cmds []cmd
	keys []int
}

func (r *round) reset() {
	r.req, r.cmds, r.keys = r.req[:0], r.cmds[:0], r.keys[:0]
}

// gen produces one connection's command stream: a pure function of
// (workload, seed, stream), so the wire run, the traced replay and the tests
// all see the same ops.
type gen struct {
	sp     *spec
	rng    rng
	zipf   *zipfian
	opaque uint32
}

func newGen(sp *spec, seed uint64, stream int) *gen {
	g := &gen{sp: sp, rng: newRNG(seed ^ mix64(uint64(stream)+1)*0x9E3779B97F4A7C15)}
	if sp.zipf {
		g.zipf = newZipfian(sp.keys, zipfTheta)
	}
	return g
}

func (g *gen) key() int {
	if g.zipf != nil {
		return g.zipf.rank(g.rng.float()) * scatter % g.sp.keys
	}
	return int(g.rng.next() % uint64(g.sp.keys))
}

// next appends one command to r and encodes it.
func (g *gen) next(r *round) {
	sp := g.sp
	g.opaque++
	c := cmd{kind: sp.readKind, opaque: g.opaque}
	if int(g.rng.next()%10) < sp.writes {
		c.kind = sp.writeKind
	}
	if c.kind == opMultiGet {
		c.off, c.n = len(r.keys), sp.multi
		for i := 0; i < sp.multi; i++ {
			r.keys = append(r.keys, g.key())
		}
		c.key = r.keys[c.off]
	} else {
		c.key = g.key()
	}
	r.cmds = append(r.cmds, c)
	r.req = sp.encode(r.req, c, r.keys)
}

// fill replaces r with the stream's next round.
func (g *gen) fill(r *round) {
	r.reset()
	for i := 0; i < g.sp.depth; i++ {
		g.next(r)
	}
}

// prefillRounds calls fn with rounds of sets that store keys 0..n-1 in
// order, n being every key or as many as prefillBytes asks for.
func (sp *spec) prefillRounds(batch int, fn func(*round) error) error {
	var r round
	stored := 0
	flush := func() error {
		if len(r.cmds) == 0 {
			return nil
		}
		err := fn(&r)
		r.reset()
		return err
	}
	for idx := 0; idx < sp.keys; idx++ {
		if sp.prefillBytes > 0 && stored >= sp.prefillBytes {
			break
		}
		c := cmd{kind: opSet, key: idx, opaque: uint32(idx)}
		r.cmds = append(r.cmds, c)
		r.req = sp.encode(r.req, c, nil)
		stored += sp.valueSize(idx)
		if len(r.cmds) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
