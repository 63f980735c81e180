// Command memcached runs the TM-memcached server: the cache engine under any
// synchronization branch from the paper, speaking the memcached text and
// binary protocols over TCP.
//
// Examples:
//
//	memcached -addr :11211 -branch baseline
//	memcached -addr :11211 -branch it-oncommit
//	memcached -addr :11211 -branch ip-nolock -stm norec -cm none
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stm"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		branchStr = flag.String("branch", "it-oncommit", "synchronization branch (baseline, semaphore, ip, it, ip-callable, it-callable, ip-max, it-max, ip-lib, it-lib, ip-oncommit, it-oncommit, ip-nolock, it-nolock)")
		memLimit  = flag.Uint64("m", 64, "memory limit in MiB")
		hashPower = flag.Uint("hashpower", 16, "initial hash table power (per shard)")
		shards    = flag.Int("shards", 0, "independent TM domains to partition the cache into (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "verbose event logging to stderr")
		stmAlg    = flag.String("stm", "", "override STM algorithm (mlwt|gcc|eager, lazy, norec, serial)")
		cmStr     = flag.String("cm", "", "override contention manager (serialize, none, backoff, hourglass)")
		noLock    = flag.Bool("nolock", false, "override: remove the global serial lock")
		trace     = flag.Bool("trace", false, "enable transaction observability from startup (stats tm/conflicts/latency, who aborted whom)")
		debugAddr = flag.String("debug-addr", "", "serve the debug HTTP endpoint on this address: /debug/vars and /metrics (the stats groups, transcoded), /debug/tm, /debug/pprof/")
	)
	flag.Parse()

	b, err := engine.ParseBranch(*branchStr)
	if err != nil {
		log.Fatal(err)
	}
	conf := engine.Config{
		Branch:    b,
		Shards:    *shards,
		MemLimit:  *memLimit << 20,
		HashPower: *hashPower,
		Verbose:   *verbose,
		Automove:  true,
	}
	if *verbose {
		conf.LogSink = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	if *stmAlg != "" || *cmStr != "" || *noLock {
		sc := stm.Config{Algorithm: stm.MLWT, CM: stm.CMSerialize, NoSerialLock: *noLock}
		if *stmAlg != "" {
			if sc.Algorithm, err = stm.ParseAlgorithm(*stmAlg); err != nil {
				log.Fatal(err)
			}
		}
		if *cmStr != "" {
			if sc.CM, err = stm.ParseCM(*cmStr); err != nil {
				log.Fatal(err)
			}
		}
		conf.STM = &sc
	}
	// Validate refuses flag combinations New would otherwise clamp silently
	// or panic on, with the offending field in the message.
	if err := conf.Validate(); err != nil {
		log.Fatal(err)
	}

	cache := engine.New(conf)
	cache.Start()
	if *trace {
		cache.EnableTracing()
	}
	srv, err := server.Listen(cache, *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("tm-memcached serving on %s (branch %s)", srv.Addr(), b)
	var dbg interface{ Close() error }
	if *debugAddr != "" {
		d, bound, err := server.ListenDebug(srv, *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		dbg = d
		log.Printf("debug endpoint on http://%s/debug/vars (also /metrics, /debug/tm, /debug/pprof/; each scrape reads the stats groups over one connection to %s)", bound, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if dbg != nil {
		dbg.Close()
	}
	srv.Close()
	cache.Stop()
}
