//go:build linux

package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/protocol"
)

// The benchmark addresses cmd/memcached, BENCHMARK.json and .bench_build
// relative to the repository root, which is where it is run from.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// stream returns the first n rounds of a generator as one byte string.
func stream(sp *spec, seed uint64, conn, n int) []byte {
	g := newGen(sp, seed, conn)
	var r round
	var out []byte
	for i := 0; i < n; i++ {
		g.fill(&r)
		out = append(out, r.req...)
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range workloads {
		a, b := stream(sp, 7, 0, 200), stream(sp, 7, 0, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different byte streams", sp.name)
		}
		if bytes.Equal(a, stream(sp, 8, 0, 200)) {
			t.Errorf("%s: seeds 7 and 8 gave the same byte stream", sp.name)
		}
		if bytes.Equal(a, stream(sp, 7, 1, 200)) {
			t.Errorf("%s: connections 0 and 1 gave the same byte stream", sp.name)
		}
	}
}

func TestZipfianRankFrequency(t *testing.T) {
	const n, draws = 1000, 2_000_000
	z := newZipfian(n, zipfTheta)
	r := newRNG(42)
	freq := make([]float64, n)
	for i := 0; i < draws; i++ {
		k := z.rank(r.float())
		if k < 0 || k >= n {
			t.Fatalf("rank %d outside [0,%d)", k, n)
		}
		freq[k]++
	}
	near := func(what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s = %.4f, want %.4f within %.0f%%", what, got, want, tol*100)
		}
	}
	near("share of rank 0", freq[0]/draws, 1/z.zetan, 0.02)
	near("rank 0 : rank 1", freq[0]/freq[1], math.Pow(2, zipfTheta), 0.03)
	// Beyond the two exact ranks the generator is Gray's closed-form
	// approximation; its tail mass is right even where single ranks are off.
	var top float64
	for _, f := range freq[:100] {
		top += f
	}
	var zeta100 float64
	for i := 1; i <= 100; i++ {
		zeta100 += 1 / math.Pow(float64(i), zipfTheta)
	}
	near("mass of the top 100 ranks", top/draws, zeta100/z.zetan, 0.03)

	// The scatter permutation must not lose or merge keys.
	for _, sp := range workloads {
		if !sp.zipf {
			continue
		}
		seen := make([]bool, sp.keys)
		for rank := 0; rank < sp.keys; rank++ {
			seen[rank*scatter%sp.keys] = true
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("%s: key %d is no rank's image", sp.name, k)
			}
		}
	}
}

// smallSpec is sp over at most 500 keys, all of them prefilled, so that a test
// cache is cheap to build.
func smallSpec(sp *spec) *spec {
	small := *sp
	small.keys = min(sp.keys, 500)
	small.prefillBytes = 0
	return &small
}

// serveRounds pushes generated rounds through a real protocol.Conn on a
// prefilled in-process cache and returns the raw reply bytes per round.
func serveRounds(t *testing.T, sp *spec, n int) (rounds []round, replies [][]byte) {
	t.Helper()
	cache, err := newCache(sp, engine.ITOnCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Stop()
	rw := &memRW{}
	pc := protocol.NewConn(cache.NewWorker(), rw)
	g := newGen(sp, 1, 0)
	for i := 0; i < n; i++ {
		var r round
		g.fill(&r)
		rw.in = r.req
		rw.out.Reset()
		for range r.cmds {
			if err := pc.ServeOne(); err != nil {
				t.Fatalf("%s: ServeOne: %v", sp.name, err)
			}
		}
		rounds = append(rounds, r)
		replies = append(replies, append([]byte(nil), rw.out.Bytes()...))
	}
	return rounds, replies
}

// check runs the checker over recorded replies.
func check(t *testing.T, sp *spec, rounds []round, replies [][]byte) *checker {
	t.Helper()
	chk := newChecker(sp, bytes.NewReader(nil))
	for i := range rounds {
		chk.br.Reset(bytes.NewReader(replies[i]))
		if err := chk.readRound(&rounds[i]); err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
	}
	return chk
}

// TestCodecRoundTrip: what encode writes, the real protocol layer
// understands, and what it answers the checker accepts — until a payload
// byte is flipped, which it must catch.
func TestCodecRoundTrip(t *testing.T) {
	const n = 50
	for _, full := range workloads {
		sp := smallSpec(full)
		rounds, replies := serveRounds(t, sp, n)
		chk := check(t, sp, rounds, replies)
		if chk.failed != 0 || chk.attempted != uint64(n*sp.depth) || chk.hits == 0 {
			t.Errorf("%s: clean replies: attempted %d, failed %d (%s), hits %d",
				sp.name, chk.attempted, chk.failed, chk.firstFail, chk.hits)
		}
		if sp.counters {
			continue // a counter's digits have no pattern to be checked against
		}

		// Flip one byte inside the first value payload that comes back.
		flipped := false
		for i, r := range rounds {
			key := r.firstRead()
			if key < 0 {
				continue
			}
			if at := bytes.Index(replies[i], sp.value(key)); at >= 0 {
				replies[i][at+3] ^= 0x01
				flipped = true
				break
			}
		}
		if chk := check(t, sp, rounds, replies); !flipped || chk.failed != 1 {
			t.Errorf("%s: flipped byte: flipped=%v, failed=%d, want exactly 1", sp.name, flipped, chk.failed)
		}
	}
}

// firstRead is the key of the round's first read command, -1 if it has none.
func (r *round) firstRead() int {
	for _, c := range r.cmds {
		if c.kind == opGet || c.kind == opMultiGet {
			return c.key
		}
	}
	return -1
}

func TestKeyAndValuePatterns(t *testing.T) {
	for _, idx := range []int{0, 7, 12345, 399_999} {
		if got := keyIndex(appendKey(nil, idx)); got != idx {
			t.Errorf("keyIndex(appendKey(%d)) = %d", idx, got)
		}
	}
	if keyIndex([]byte("key:00000000x1")) != -1 || keyIndex([]byte("nope")) != -1 {
		t.Error("keyIndex accepted a malformed key")
	}
	sp := findWorkload("evict_write")
	var total float64
	for idx := 0; idx < 20_000; idx++ {
		n := sp.valueSize(idx)
		if n < sp.valMin || n > sp.valMax || len(sp.value(idx)) != n {
			t.Fatalf("value size %d of key %d outside [%d,%d]", n, idx, sp.valMin, sp.valMax)
		}
		total += float64(n)
	}
	// Mean of a log-uniform on [a,b] is (b-a)/ln(b/a).
	want := float64(sp.valMax-sp.valMin) / math.Log(float64(sp.valMax)/float64(sp.valMin))
	if got := total / 20_000; math.Abs(got-want) > 0.05*want {
		t.Errorf("mean value size %.0f, want %.0f within 5%%", got, want)
	}
}

func TestPercentilesAndSpread(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := sortedCopy(ten)
	if p := percentile(s, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(s, 0.99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	if m := median(ten); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q2, q3 := quartiles([]float64{4, 1, 3, 2}); q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
	if sp := spread(ten); sp != 1 {
		t.Errorf("spread = %v, want 1", sp)
	}
	if sp := spread([]float64{3}); sp != 0 {
		t.Errorf("spread of one value = %v, want 0", sp)
	}

	// Two connections, a window of 4 slices of 1 s: one slice stalls, the
	// medians do not move.
	var conns [][]sample
	for c := 0; c < 2; c++ {
		var ss []sample
		for i := 0; i < 4000; i++ {
			end := time.Second + time.Duration(i)*time.Millisecond
			lat := 100 * time.Microsecond
			if i >= 1000 && i < 2000 {
				lat = 5 * time.Millisecond
			}
			ss = append(ss, sample{end, lat})
		}
		conns = append(conns, ss)
	}
	ops, p50, p99 := sliceMedians(conns, time.Second, 4*time.Second, 4, 8)
	if ops != 2*1000*8 || p50 != 100 || p99 != 100 {
		t.Errorf("sliceMedians = %v ops/s, p50 %v, p99 %v; want 16000, 100, 100", ops, p50, p99)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(x float64) []float64 { return []float64{x * 0.99, x, x, x, x * 1.01} }
	noisy := func(x float64) []float64 { return []float64{x * 0.7, x * 0.9, x, x * 1.1, x * 1.3} }
	for _, tc := range []struct {
		name           string
		higher         bool
		bound          float64
		parent, change []float64
		want           string
	}{
		{"throughput down 20%", true, 0.07, steady(100), steady(80), worse},
		{"throughput up 20%", true, 0.07, steady(100), steady(120), better},
		{"throughput down 3%", true, 0.07, steady(100), steady(97), withinBound},
		{"latency up 20%", false, 0.10, steady(50), steady(60), worse},
		{"latency down 20%", false, 0.10, steady(50), steady(40), better},
		{"latency up 5%", false, 0.10, steady(50), steady(52.5), withinBound},
		{"noise wider than the bound hides 8%", false, 0.05, noisy(50), noisy(54), unresolved},
		{"a change beyond the noise still counts", false, 0.05, noisy(50), noisy(100), worse},
		{"single runs have no spread", true, 0.07, []float64{100}, []float64{90}, worse},
	} {
		if _, _, _, _, got := verdict(tc.higher, tc.bound, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	runs := []runRecord{
		{Workload: "a", Attempted: 100, Failed: 1},
		{Workload: "a", Attempted: 100},
		{Workload: "b", Attempted: 100},
	}
	if f := failRatio(runs, "a"); f != 0.005 {
		t.Errorf("failRatio = %v, want 0.005", f)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step: same workloads, same metrics, same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q does not match %q (why at most 200 characters)", i, w.Name, w.Why, workloads[i].name)
		}
	}
	dir := map[bool]string{true: "higher", false: "lower"}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(bj.EndToEnd), len(endToEnd), len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != dir[d.higher] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v does not match %+v (bound in (0, 0.25])", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != dir[d.higher] {
			t.Errorf("per-layer metric %d: %+v does not match %+v", i, m, d)
		}
	}
}

// TestHotIncrSmoke runs hot_incr against a real child server for a second
// and checks the counter oracle: every counter ends at the number of incrs
// the server acknowledged.
func TestHotIncrSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/memcached")
	}
	bin, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	defer killAll()
	sp := findWorkload("hot_incr")
	res, err := runWire(sp, wireOpts{
		seed: 1, instances: 1, window: time.Second, warmup: 200 * time.Millisecond, scrape: true, bin: bin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.ops == 0 || res.hit != 1 {
		t.Errorf("failed %d of %d (%s), %d ops in the window, hit ratio %v", res.failed, res.attempted, res.firstFail, res.ops, res.hit)
	}
	if res.delta["incr_hits"] == 0 || res.delta["tm_transactions"] == 0 {
		t.Errorf("server counters did not move: %v incrs, %v commits", res.delta["incr_hits"], res.delta["tm_transactions"])
	}
	live.Lock()
	n := len(live.m)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d server processes still registered after the run", n)
	}
}
