// Command vpnmtrace renders Figure-1 style timelines of the virtually
// pipelined memory controller: how bank conflicts, redundant-request
// short-cuts and overload stalls look from the interface, with every
// completed read emerging exactly D cycles after it was issued.
//
// With no flags it reproduces the paper's three Figure 1 scenarios.
// With -pattern it traces a custom comma-separated address list
// (one read per cycle) through a small controller. With -rand N it
// traces N random reads instead; add -chrome out.json to either traced
// mode to dump the run as Chrome trace_event JSON for
// chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vpnmtrace: ")
	var (
		pattern = flag.String("pattern", "", "comma-separated addresses to read, one per cycle (empty: the three Figure 1 scenarios)")
		random  = flag.Int("rand", 0, "trace this many random reads instead of -pattern")
		chrome  = flag.String("chrome", "", "also write the traced run as Chrome trace_event JSON to this file")
		banks   = flag.Int("banks", 4, "banks for -pattern mode")
		l       = flag.Int("l", 15, "bank access latency for -pattern mode")
		q       = flag.Int("q", 2, "bank access queue depth for -pattern mode")
		scale   = flag.Int("scale", 2, "interface cycles per rendered column")
	)
	flag.Parse()

	if *pattern == "" && *random == 0 {
		scs, err := trace.Figure1()
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range scs {
			fmt.Printf("== %s ==\n%s\n\n%s\n", s.Name, s.Description, s.Render)
		}
		return
	}

	var addrs []uint64
	if *random > 0 {
		rng := rand.New(rand.NewPCG(7, 13))
		for i := 0; i < *random; i++ {
			addrs = append(addrs, rng.Uint64()&0xff)
		}
	} else {
		for _, f := range strings.Split(*pattern, ",") {
			a, err := strconv.ParseUint(strings.TrimSpace(f), 0, 64)
			if err != nil {
				log.Fatalf("bad address %q: %v", f, err)
			}
			addrs = append(addrs, a)
		}
	}
	// One event ring, sized to keep the whole run, feeds both the ASCII
	// timeline and the Chrome trace.
	events := trace.NewRing(len(addrs))
	bits := 1
	for 1<<bits < *banks {
		bits++
	}
	ctrl, err := core.New(core.Config{
		Banks:         *banks,
		AccessLatency: *l,
		QueueDepth:    *q,
		DelayRows:     4 * *q,
		RatioNum:      1,
		RatioDen:      1,
		WordBytes:     8,
		HashLatency:   1,
		Hash:          hash.NewIdentity(bits), // addresses name their banks directly
		Trace:         events.ForChannel(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range addrs {
		if _, err := ctrl.Read(a); err != nil && !core.IsStall(err) {
			log.Fatal(err)
		}
		ctrl.Tick()
	}
	ctrl.Flush()
	if *random == 0 || len(addrs) <= 64 {
		fmt.Printf("D = %d interface cycles; '|' issue, '#' bank access, '.' pipeline, 'D' delivery, 'X' stall\n\n", ctrl.Delay())
		fmt.Print(trace.Timeline(events.Snapshot(), 1, 1, *scale))
	} else {
		fmt.Printf("D = %d interface cycles; traced %d random reads (timeline suppressed past 64 requests)\n", ctrl.Delay(), len(addrs))
	}
	if *chrome != "" {
		events.Stop()
		f, err := os.Create(*chrome)
		if err != nil {
			log.Fatal(err)
		}
		if err := events.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing or ui.perfetto.dev)\n", events.Recorded(), *chrome)
	}
}
