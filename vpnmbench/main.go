// Command vpnmbench is the end-to-end benchmark of the VPNM serving
// stack: a client drives a vpnmd engine over net.Pipe or loopback TCP,
// the engine serves a striped multichannel memory of VPNM controllers,
// and the benchmark times the calls into their public APIs from
// outside.
//
//	vpnmbench --workload ooo-read-pipe --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it adds a traced run and per-layer replays, and
// reports the per-layer metrics, an attribution table and the tracing
// overhead. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when the run finished and every output checked correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxProcs caps GOMAXPROCS so that runs on hosts of different widths
// schedule the client, engine and connection goroutines alike.
const maxProcs = 2

// setups is how many times a run builds and warms a stack; setup_s is
// the median.
const setups = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpnmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "request-stream seed")
	seconds := fs.Float64("seconds", 10, "length of each timed phase, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and replays")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "vpnmbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "workload %s (seed %d, %v timed, trace %d)\n  why: %s\n", w.name, *seed, dur, *trace, w.why)
	fmt.Fprintf(stdout, "context: nproc=%d GOMAXPROCS=%d %s %s/%s transport=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, w.transport())

	var v verdict
	if *trace == 0 {
		v, err = endToEnd(stdout, w, *seed, dur)
	} else {
		v, err = perLayer(stdout, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "vpnmbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(stderr, "vpnmbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !v.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runE2E sets the workload up `setups` times (keeping the last stack),
// runs one untraced timed phase, and tears the stack down.
func runE2E(w *workload, seed uint64, dur time.Duration, nSetups int) (*result, error) {
	res := &result{}
	var s *stack
	for i := 0; i < nSetups; i++ {
		t0 := time.Now()
		st, cyc, err := setUp(w, seed, nil, false)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0))
		res.warmCycles = append(res.warmCycles, cyc)
		if i < nSetups-1 {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		s = st
	}
	runtime.GC()
	err := s.measure(seed, dur, res)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return res, err
}

func endToEnd(out io.Writer, w *workload, seed uint64, dur time.Duration) (verdict, error) {
	res, err := runE2E(w, seed, dur, setups)
	if err != nil {
		return verdict{}, err
	}
	printRun(out, "untraced", res)
	var st []float64
	for _, d := range res.setups {
		st = append(st, d.Seconds())
	}
	m := map[string]metric{
		"req_per_s":      {res.reqPerS, "1/s"},
		"req_per_cycle":  {res.reqPerCycle(), "req/cycle"},
		"lat_p50_us":     {median(res.latWin[0]) / 1e3, "us"},
		"lat_p90_us":     {median(res.latWin[1]) / 1e3, "us"},
		"cpu_us_per_req": {res.cpuUsReq, "us"},
		"heap_mb":        {res.heapMB, "MB"},
		"setup_s":        {median(st), "s"},
	}
	return finish(out, res, m), nil
}

// finish prints the correctness ledger and assembles the verdict.
func finish(out io.Writer, res *result, m map[string]metric) verdict {
	v := verdict{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}
	if v.Correct {
		fmt.Fprintf(out, "checks: fixed-D held on every completion, every word 0 or g(addr), client ledger reconciles with the engine, 0 of %d requests failed\n", res.attempted)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	return v
}

func printRun(out io.Writer, label string, res *result) {
	w := res.w
	fmt.Fprintf(out, "%s run: %d requests in %.3fs, %d engine cycles\n", label, res.reqs, res.wall.Seconds(), res.cycles)
	fmt.Fprintf(out, "  req_per_s      %.1f 1/s (median of %d windows)\n", res.reqPerS, nWin)
	fmt.Fprintf(out, "  req_per_cycle  %.6f (%d requests / %d cycles)\n", res.reqPerCycle(), res.reqs, res.cycles)
	fmt.Fprintf(out, "  latency        p50 %.2f us, p90 %.2f us (median of windows); whole run p50 %.2f p90 %.2f p99 %.2f us over %d reads, %s\n",
		median(res.latWin[0])/1e3, median(res.latWin[1])/1e3,
		res.lat.quantile(0.5)/1e3, res.lat.quantile(0.9)/1e3, res.lat.quantile(0.99)/1e3, res.lat.n, latOrigin(w))
	fmt.Fprintf(out, "  cpu_us_per_req %.4f us, allocs_per_req %.6f, heap_mb %.3f MB (HeapInuse after GC)\n", res.cpuUsReq, res.allocsReq, res.heapMB)
	fmt.Fprintf(out, "  windows        req_per_s %s\n                 p50_us %s\n                 cpu_us %s\n",
		fmtList(res.rateWin, 1, 1), fmtList(res.latWin[0], 1e3, 1), fmtList(res.cpuWin, 1, 3))
	if len(res.setups) > 0 {
		var ss []string
		for i, d := range res.setups {
			ss = append(ss, fmt.Sprintf("%.3fs@cycle %d", d.Seconds(), res.warmCycles[i]))
		}
		fmt.Fprintf(out, "  set-ups        %s (raw warm-up cycle counts; a deterministic stack repeats them exactly)\n", strings.Join(ss, ", "))
	}
}

func latOrigin(w *workload) string {
	if w.period > 0 {
		return fmt.Sprintf("timed from each burst's due time (open loop, %d reads every %v)", w.batch, w.period)
	}
	return fmt.Sprintf("timed from the Read call (closed loop, window %d)", w.window)
}

func fmtList(xs []float64, div float64, prec int) string {
	var ss []string
	for _, x := range xs {
		ss = append(ss, strconv.FormatFloat(x/div, 'f', prec, 64))
	}
	return strings.Join(ss, " ")
}
