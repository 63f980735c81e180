// Command mctop is a live terminal console for a running tm-memcached
// server: it polls the stats surface (stats, stats fingerprint, stats
// eventloop) at a fixed interval and renders one screen of per-shard
// workload fingerprints — decayed op counts, hot keys, abort mix — plus
// transport queue depths and poller counters.
//
//	mctop -addr 127.0.0.1:11211
//	mctop -addr 127.0.0.1:11211 -interval 2s
//	mctop -addr 127.0.0.1:11211 -once        # one frame, no screen control
//
// Enable fingerprinting on the server first (-fingerprint, or POST
// /debug/fingerprint?enable=1); without it the per-shard table is empty.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/mctop"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:11211", "server address to poll")
		interval = flag.Duration("interval", time.Second, "poll interval")
		once     = flag.Bool("once", false, "print a single frame and exit (no screen clearing)")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-poll dial+query timeout")
	)
	flag.Parse()

	var prev *mctop.Frame
	for {
		cur, err := mctop.Fetch(*addr, *timeout)
		if err != nil {
			if *once {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "mctop: %v (retrying)\n", err)
			time.Sleep(*interval)
			continue
		}
		out := mctop.Render(cur, prev)
		if *once {
			fmt.Print(out)
			return
		}
		// Clear and home; plain ANSI keeps this dependency-free.
		fmt.Print("\x1b[2J\x1b[H" + out)
		prev = cur
		time.Sleep(*interval)
	}
}
