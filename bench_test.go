// Repository-level benchmarks: one testing.B benchmark per figure and table
// of the paper (run `go test -bench=Fig -benchmem` or cmd/mcbench for the
// full sweeps), plus ablation benchmarks for the design choices DESIGN.md
// calls out.
//
// Figure/table benchmarks execute one scaled-down memslap round per
// iteration and report ops/s plus the serialization counters; the paper's
// full parameters are cmd/mcbench -ops 625000 -threads 1,2,4,8,12 -trials 5.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/memslap"
	"repro/internal/stm"
	"repro/internal/tmlib"
)

// benchOpts keeps a single bench iteration around a few milliseconds.
var benchOpts = bench.Options{
	Threads:      []int{4},
	TableThreads: 4,
	OpsPerThread: 2000,
	KeySpace:     2048,
	ValueSize:    512,
}

func benchFigure(b *testing.B, id int) {
	for _, v := range bench.FigureVariants(id) {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			var last bench.Measurement
			for i := 0; i < b.N; i++ {
				last = bench.Run(v, benchOpts.Threads[0], benchOpts)
			}
			b.ReportMetric(last.OpsPerS, "ops/s")
			if last.Stats.Commits > 0 {
				b.ReportMetric(float64(last.Stats.InFlightSwitch+last.Stats.StartSerial+last.Stats.AbortSerial), "serialized")
			}
		})
	}
}

func benchTable(b *testing.B, id int) {
	for _, v := range bench.TableVariants(id) {
		v := v
		b.Run(v.Label, func(b *testing.B) {
			var last bench.Measurement
			for i := 0; i < b.N; i++ {
				last = bench.Run(v, benchOpts.TableThreads, benchOpts)
			}
			b.ReportMetric(float64(last.Stats.Commits), "transactions")
			b.ReportMetric(float64(last.Stats.InFlightSwitch), "in-flight")
			b.ReportMetric(float64(last.Stats.StartSerial), "start-serial")
			b.ReportMetric(float64(last.Stats.AbortSerial), "abort-serial")
		})
	}
}

// One benchmark per figure in the paper's evaluation.

func BenchmarkFig4BaselineTransactionalization(b *testing.B) { benchFigure(b, 4) }
func BenchmarkFig6MaximalTransactionalization(b *testing.B)  { benchFigure(b, 6) }
func BenchmarkFig8SafeLibraries(b *testing.B)                { benchFigure(b, 8) }
func BenchmarkFig9OnCommitHandlers(b *testing.B)             { benchFigure(b, 9) }
func BenchmarkFig10NoSerialLock(b *testing.B)                { benchFigure(b, 10) }
func BenchmarkFig11AlgorithmsAndCMs(b *testing.B)            { benchFigure(b, 11) }

// One benchmark per table (serialization frequency and cause, 4 threads).

func BenchmarkTable1Serialization(b *testing.B) { benchTable(b, 1) }
func BenchmarkTable2Serialization(b *testing.B) { benchTable(b, 2) }
func BenchmarkTable3Serialization(b *testing.B) { benchTable(b, 3) }
func BenchmarkTable4Serialization(b *testing.B) { benchTable(b, 4) }

// ---------------------------------------------------------------------------
// Ablation 1: eager (write-through/undo) vs lazy (write-back/redo) vs NOrec
// under the write-heavy byte-copy pattern the paper blames for the buffered
// algorithms' memcpy logging costs (§4).

func BenchmarkAblationAlgoMemcpy(b *testing.B) {
	for _, alg := range []stm.Algorithm{stm.MLWT, stm.LazyAlg, stm.NOrec} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			rt := stm.New(stm.Config{Algorithm: alg, CM: stm.CMNone})
			th := rt.NewThread()
			src := make([]byte, 1024)
			for i := range src {
				src[i] = byte(i)
			}
			dst := stm.NewTBytes(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
					tmlib.MemcpyFromLocal(tx, dst, 0, src)
				})
			}
		})
	}
}

// Ablation 2: the global readers/writer serial lock present vs removed, on a
// transaction-only microworkload (the Figure 10 mechanism isolated).

func BenchmarkAblationSerialLock(b *testing.B) {
	for _, noLock := range []bool{false, true} {
		noLock := noLock
		name := "with-serial-lock"
		if noLock {
			name = "no-serial-lock"
		}
		b.Run(name, func(b *testing.B) {
			rt := stm.New(stm.Config{Algorithm: stm.MLWT, CM: stm.CMNone, NoSerialLock: noLock})
			counters := make([]*stm.TWord, 64)
			for i := range counters {
				counters[i] = stm.NewTWord(0)
			}
			b.RunParallel(func(pb *testing.PB) {
				th := rt.NewThread()
				i := 0
				for pb.Next() {
					w := counters[i%len(counters)]
					i++
					_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
						w.Store(tx, w.Load(tx)+1)
					})
				}
			})
		})
	}
}

// Ablation 3: contention managers on a hot-counter workload with forced
// transaction overlap (a mid-transaction yield stands in for preemption,
// which is how overlap arises on a single-core host).

func BenchmarkAblationCM(b *testing.B) {
	for _, cm := range []stm.ContentionManager{stm.CMNone, stm.CMSerialize, stm.CMBackoff, stm.CMHourglass} {
		cm := cm
		b.Run(cm.String(), func(b *testing.B) {
			cfg := stm.Config{Algorithm: stm.MLWT, CM: cm, SerializeAfter: 100, HourglassAfter: 16}
			rt := stm.New(cfg)
			hot := stm.NewTWord(0)
			b.RunParallel(func(pb *testing.PB) {
				th := rt.NewThread()
				for pb.Next() {
					_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
						v := hot.Load(tx)
						hot.Store(tx, v+1)
					})
				}
			})
			s := rt.Stats()
			b.ReportMetric(s.AbortsPerCommit(), "aborts/commit")
		})
	}
}

// Ablation 4: the two item-lock strategies (Figure 1) on a get-heavy
// workload — IP pays two mini-transactions per access, IT one larger
// instrumented transaction.

func BenchmarkAblationItemLock(b *testing.B) {
	for _, br := range []engine.Branch{engine.IPOnCommit, engine.ITOnCommit} {
		br := br
		b.Run(br.String(), func(b *testing.B) {
			c := engine.New(engine.Config{Branch: br, MemLimit: 16 << 20, HashPower: 10})
			c.Start()
			defer c.Stop()
			w := c.NewWorker()
			for i := 0; i < 512; i++ {
				w.Set([]byte(fmt.Sprintf("k-%03d", i)), 0, 0, make([]byte, 256))
			}
			keys := make([][]byte, 512)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("k-%03d", i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := w.Get(keys[i%512]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// Ablation 5: making a libc call safe by reimplementation (instrumented
// word-wise parse) vs by marshaling (copy to private memory, pure call) —
// the two §3.4 techniques head to head.

func BenchmarkAblationMarshalVsReimpl(b *testing.B) {
	rt := stm.New(stm.Config{})
	th := rt.NewThread()
	buf := stm.NewTBytesFrom([]byte("18446744073709551615"))

	b.Run("marshal+pure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
				var stack [20]byte
				tmlib.MarshalInto(tx, stack[:], buf, 0)
				tmlib.PureStrtoull(stack[:])
			})
		}
	})
	b.Run("reimplemented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
				// Fully instrumented digit-by-digit parse.
				var v uint64
				for j := 0; j < buf.Len(); j++ {
					c := byte(buf.LoadWord(tx, j/8) >> (8 * (j % 8)))
					if c < '0' || c > '9' {
						break
					}
					v = v*10 + uint64(c-'0')
				}
				_ = v
			})
		}
	})
}

// Ablation 6: the cost of privatization-safety quiescence (writers waiting
// for concurrent transactions at commit) — the tax the Draft specification's
// safety requirement imposes on every writer commit.

func BenchmarkAblationQuiescence(b *testing.B) {
	for _, noQ := range []bool{false, true} {
		noQ := noQ
		name := "quiesce"
		if noQ {
			name = "no-quiesce"
		}
		b.Run(name, func(b *testing.B) {
			rt := stm.New(stm.Config{Algorithm: stm.MLWT, CM: stm.CMNone, NoQuiesce: noQ})
			words := make([]*stm.TWord, 256)
			for i := range words {
				words[i] = stm.NewTWord(0)
			}
			b.RunParallel(func(pb *testing.PB) {
				th := rt.NewThread()
				i := 0
				for pb.Next() {
					w := words[i%256]
					i++
					_ = th.Run(stm.Props{Kind: stm.Atomic}, func(tx *stm.Tx) {
						w.Store(tx, w.Load(tx)+1)
					})
				}
			})
		})
	}
}

// Ablation 8: the three condition-synchronization regimes on the onCommit
// code base — semaphores with the post inline (pre-onCommit shape), posts
// deferred to onCommit handlers (the paper's solution), and the Retry
// primitive §5 asks for (no wake-up calls at all).

func BenchmarkAblationCondSync(b *testing.B) {
	type mode struct {
		name  string
		br    engine.Branch
		retry bool
	}
	for _, m := range []mode{
		{"sem-inline(lib)", engine.IPLib, false},
		{"sem-oncommit", engine.IPOnCommit, false},
		{"retry-primitive", engine.IPOnCommit, true},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := engine.New(engine.Config{
					Branch:        m.br,
					MemLimit:      2 << 20,
					HashPower:     10,
					Automove:      true,
					RetryCondSync: m.retry,
				})
				c.Start()
				res := memslap.RunDirect(c, memslap.Config{Concurrency: 4, ExecuteNumber: 2000, KeySpace: 2048, ValueSize: 512})
				c.Stop()
				b.ReportMetric(res.OpsPerSec(), "ops/s")
			}
		})
	}
}

// BenchmarkProtocolRoundTrip measures the full text-protocol path in-memory
// (parser + engine, no sockets).

func BenchmarkProtocolSetGet(b *testing.B) {
	c := engine.New(engine.Config{Branch: engine.ITOnCommit, HashPower: 10, MemLimit: 16 << 20})
	c.Start()
	defer c.Stop()
	w := c.NewWorker()
	val := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("proto-%04d", i%1024))
		if i%10 == 0 {
			w.Set(key, 0, 0, val)
		} else {
			w.Get(key)
		}
	}
}

// BenchmarkMemslapDirect is the core workload loop on the best branch, for
// quick regressions.

func BenchmarkMemslapDirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := engine.New(engine.Config{Branch: engine.IPNoLock, MemLimit: 8 << 20, HashPower: 10})
		c.Start()
		res := memslap.RunDirect(c, memslap.Config{Concurrency: 4, ExecuteNumber: 2000, KeySpace: 2048, ValueSize: 512})
		c.Stop()
		b.ReportMetric(res.OpsPerSec(), "ops/s")
	}
}
