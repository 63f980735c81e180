// Command mctrace generates, inspects and replays cache workload traces
// (internal/trace): the same captured operation stream, replayed against any
// synchronization branch of the paper.
//
//	mctrace gen -o run.trace -ops 50000 -clients 4       # synthesize
//	mctrace info run.trace                               # inspect
//	mctrace replay -branch it-oncommit run.trace         # replay
//	mctrace replay -branch baseline -branch it-nolock run.trace
//	mctrace replay -txobs run.trace                      # + observability report
//
// With -txobs each replay runs with transaction observability on and prints
// the observer's report: serialization causes, the conflict heat map and who
// aborted whom.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mctrace gen|info|replay [flags] [file]")
	os.Exit(2)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("o", "run.trace", "output file")
	ops := fs.Int("ops", 10000, "operations per client")
	clients := fs.Int("clients", 4, "client streams")
	keyspace := fs.Int("keyspace", 4096, "distinct keys")
	vsize := fs.Int("value-size", 512, "value size")
	zipf := fs.Bool("zipf", false, "Zipf-skewed keys")
	fs.Parse(args)

	// Record a memslap-shaped run against a baseline cache.
	c := engine.New(engine.Config{Branch: engine.Baseline, MemLimit: 64 << 20})
	c.Start()
	defer c.Stop()
	s := trace.NewSession()
	done := make(chan struct{}, *clients)
	for g := 0; g < *clients; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			r := s.NewRecorder(c.NewWorker())
			seed := uint64(g)*0x9E3779B97F4A7C15 + 7
			next := func() uint64 {
				seed ^= seed >> 12
				seed ^= seed << 25
				seed ^= seed >> 27
				return seed * 0x2545F4914F6CDD1D
			}
			val := make([]byte, *vsize)
			for i := 0; i < *ops; i++ {
				kn := int(next() % uint64(*keyspace))
				if *zipf {
					kn = kn % (kn%64 + 1) // crude skew for the generator tool
				}
				key := fmt.Appendf(nil, "trace-key-%08d", kn)
				switch {
				case next()%10 == 0:
					r.Set(key, 0, 0, val)
				case next()%50 == 0:
					r.Delete(key)
				default:
					r.Get(key)
				}
			}
		}()
	}
	for g := 0; g < *clients; g++ {
		<-done
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr := s.Trace()
	if err := tr.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d ops (%d clients) to %s\n", len(tr.Ops), tr.Clients(), *out)
}

func loadFile(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tr := loadFile(fs.Arg(0))
	kinds := map[trace.Kind]int{}
	keys := map[string]struct{}{}
	for _, op := range tr.Ops {
		kinds[op.Kind]++
		keys[string(op.Key)] = struct{}{}
	}
	fmt.Printf("ops: %d, clients: %d, distinct keys: %d\n", len(tr.Ops), tr.Clients(), len(keys))
	for k := trace.OpGet; k <= trace.OpFlushAll; k++ {
		if n := kinds[k]; n > 0 {
			fmt.Printf("  %-10s %d\n", k, n)
		}
	}
}

type branchList []string

func (b *branchList) String() string     { return fmt.Sprint(*b) }
func (b *branchList) Set(s string) error { *b = append(*b, s); return nil }

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var branches branchList
	fs.Var(&branches, "branch", "branch to replay against (repeatable)")
	mem := fs.Uint64("m", 64, "memory limit MiB")
	prof := fs.Bool("txobs", false, "trace each replay and print the per-branch observability report (heat map + latency)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if len(branches) == 0 {
		branches = branchList{"it-oncommit"}
	}
	tr := loadFile(fs.Arg(0))
	for _, name := range branches {
		b, err := engine.ParseBranch(name)
		if err != nil {
			log.Fatal(err)
		}
		c := engine.New(engine.Config{Branch: b, MemLimit: *mem << 20, Automove: true})
		c.Start()
		if *prof {
			c.EnableTracing()
		}
		start := time.Now()
		res := trace.Replay(c, tr)
		dur := time.Since(start)
		w := c.NewWorker()
		snap := w.Stats()
		c.Stop()
		fmt.Printf("%-14s %8.3fs  %8.0f ops/s  hits=%d errors=%d curr_items=%d tm_serialized=%d\n",
			b, dur.Seconds(), float64(res.Ops)/dur.Seconds(), res.Hits, res.Errors,
			snap.CurrItems, snap.STM.InFlightSwitch+snap.STM.StartSerial+snap.STM.AbortSerial)
		if *prof {
			if o := c.Observer(); o != nil {
				fmt.Print(o.Report(10))
			}
		}
	}
}
