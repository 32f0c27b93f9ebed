package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/dram"
	"repro/internal/server"
)

// nWin is the number of equal windows the timed phase is cut into.
// Rates and latency quantiles are computed per window and reported as
// the median window, so one scheduling hiccup on a shared host moves
// one window, not the result.
const nWin = 20

// slot tracks one in-flight read for latency: the generator stamps the
// start and marks it busy, the completion callback records and frees
// it. The callbacks are built once, so timing a read allocates nothing.
type slot struct {
	start atomic.Int64
	busy  atomic.Bool
	cb    func(client.Completion)
}

// recorder receives every read completion of one stack.
type recorder struct {
	base  time.Time
	slots []slot
	next  int // generator-owned cursor into slots
	win   atomic.Int32
	lat   [nWin + 1]hist // [0] set-up, [1..nWin] the timed windows

	completed, mismatches, errs atomic.Uint64
}

func newRecorder(window int) *recorder {
	r := &recorder{base: time.Now(), slots: make([]slot, 2*window)}
	for i := range r.slots {
		sl := &r.slots[i]
		sl.cb = func(c client.Completion) { r.done(sl, c) }
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// take returns the callback of a free slot stamped with start. At most
// window reads are in flight and there are twice as many slots, so the
// scan ends quickly.
func (r *recorder) take(start int64) func(client.Completion) {
	for {
		sl := &r.slots[r.next]
		if r.next++; r.next == len(r.slots) {
			r.next = 0
		}
		if !sl.busy.Load() {
			sl.start.Store(start)
			sl.busy.Store(true)
			return sl.cb
		}
	}
}

func (r *recorder) done(sl *slot, c client.Completion) {
	end := r.now()
	switch {
	case c.Err != nil:
		r.errs.Add(1)
	case !wordOK(c.Addr, c.Data):
		r.mismatches.Add(1)
	}
	r.lat[r.win.Load()].record(end - sl.start.Load())
	r.completed.Add(1)
	sl.busy.Store(false)
}

// tracer holds the generator-side per-call timings of a traced run.
type tracer struct {
	issue, kick, lag hist
	inflightSum      float64
	inflightN        int
}

// result is one run's measurement and its correctness ledger.
type result struct {
	w *workload

	setups     []time.Duration // every set-up of the run
	warmCycles []uint64        // engine cycle after each set-up's warm-up

	attempted, failed uint64
	problems          []string

	reqs       uint64 // requests issued in the timed phase
	wall       time.Duration
	cycles     uint64 // engine cycles across the timed phase and its drain
	reqPerS    float64
	cpuUsReq   float64
	allocsReq  float64
	heapMB     float64
	lat        hist         // all timed windows merged
	latWin     [2][]float64 // per-window p50 and p90
	rateWin    []float64
	cpuWin     []float64
	snap0      server.Snapshot
	snap1      server.Snapshot
	ctr0, ctr1 client.Counters
	tr         *tracer
	mismatches uint64

	txBytes, rxBytes, txWrites, rxReads uint64
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) reqPerCycle() float64 { return float64(r.reqs) / float64(r.cycles) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// inFlight is the client's unresolved request count.
func inFlight(c client.Counters) uint64 {
	return c.Issued - c.Completions - c.AcceptedWrites - c.Drops - c.DeadlineExceeded
}

// resolved counts completed reads plus accepted writes.
func resolved(c client.Counters) uint64 { return c.Completions + c.AcceptedWrites }

// withDeadline bounds one phase of a run. When the deadline passes
// before the phase ends, the client is closed — which unblocks a
// generator parked on a full window or a stalled pipe write — and the
// error names the workload, the requests in flight and the window.
func (s *stack) withDeadline(phase string, d time.Duration, f func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	stuck := make(chan uint64, 1)
	stop := context.AfterFunc(ctx, func() {
		stuck <- inFlight(s.cl.Counters())
		s.cl.Close()
	})
	err := f(ctx)
	if !stop() { // only the deadline can end ctx before cancel runs
		return fmt.Errorf("%s: %s did not finish within %v: %d requests in flight, window %d (the run hung, or the window is below issue rate × D)",
			s.w.name, phase, d, <-stuck, s.w.window)
	}
	if err != nil {
		return fmt.Errorf("%s: %s: %w", s.w.name, phase, err)
	}
	return nil
}

// issue sends one request of the generated stream; reads are stamped
// with start for latency.
func (s *stack) issue(ctx context.Context, o op, start int64, buf []byte) error {
	if o.write {
		return s.cl.Write(ctx, o.addr, wordOf(o.addr, buf))
	}
	return s.cl.Read(ctx, o.addr, s.rec.take(start))
}

// setUp builds a stack and brings it to a steady state: every word of a
// prefilled workload written, warmOps requests issued and drained, and
// the fixed-D check armed by a Stats round trip. It returns the stack
// and the engine cycle the warm-up ended on.
func setUp(w *workload, seed uint64, fault dram.Hook, traced bool) (*stack, uint64, error) {
	s, err := buildStack(w, fault, traced)
	if err != nil {
		return nil, 0, err
	}
	var cycle uint64
	err = s.withDeadline("set-up", setupDeadline, func(ctx context.Context) error {
		var buf [8]byte
		n := 0
		kick := func() error {
			if n++; w.manual && n%w.batch == 0 {
				return s.cl.Kick()
			}
			return nil
		}
		if w.prefill {
			for a := uint64(0); a < w.space; a++ {
				if err := s.issue(ctx, op{write: true, addr: a}, 0, buf[:]); err != nil {
					return err
				}
				if err := kick(); err != nil {
					return err
				}
			}
		}
		// An open-loop workload warms up on its own schedule, so its
		// pools settle at the light-load high-water mark it is timed at.
		st := newStream(w, seed, streamSetup)
		t0 := s.rec.now()
		for i := 0; i < w.warmOps; i++ {
			if w.period > 0 && i%w.batch == 0 {
				if d := t0 + int64(i/w.batch)*int64(w.period) - s.rec.now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
			}
			if err := s.issue(ctx, st.next(), s.rec.now(), buf[:]); err != nil {
				return err
			}
			if err := kick(); err != nil {
				return err
			}
		}
		if err := s.cl.Flush(ctx); err != nil {
			return err
		}
		stats, err := s.cl.Stats(ctx)
		cycle = stats.Cycle
		return err
	})
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, cycle, nil
}

const setupDeadline = 30 * time.Second

// window is one timed window's boundary sample.
type window struct {
	at       int64 // recorder clock, ns
	resolved uint64
	cpu      time.Duration
	mallocs  uint64
}

func (s *stack) sample() window {
	return window{at: s.rec.now(), resolved: resolved(s.cl.Counters()), cpu: cpuTime(), mallocs: mallocs()}
}

// measure runs the timed phase for dur and checks every output. On a
// traced stack it also times every generator call.
func (s *stack) measure(seed uint64, dur time.Duration, res *result) error {
	w := s.w
	res.w = w
	if s.cc != nil {
		res.tr = &tracer{}
	}
	res.snap0, res.ctr0 = s.eng.Snapshot(), s.cl.Counters()
	var cc0 [4]uint64
	if s.cc != nil {
		cc0 = s.cc.counts()
	}
	wins := make([]window, 0, nWin+1)
	err := s.withDeadline("timed phase", dur+30*time.Second, func(ctx context.Context) error {
		rec, tr := s.rec, res.tr
		wins = append(wins, s.sample())
		t0 := wins[0].at
		rec.win.Store(1)
		winDur := int64(dur / nWin)
		st := newStream(w, seed, streamTimed)
		var buf [8]byte
		for b := int64(0); ; b++ {
			var start int64
			if w.period > 0 {
				start = t0 + b*int64(w.period)
				if d := start - rec.now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				if tr != nil {
					tr.lag.record(rec.now() - start)
				}
			}
			for j := 0; j < w.batch; j++ {
				t := rec.now()
				if w.period == 0 {
					start = t
				}
				if err := s.issue(ctx, st.next(), start, buf[:]); err != nil {
					return err
				}
				if tr != nil {
					tr.issue.record(rec.now() - t)
				}
			}
			res.reqs += uint64(w.batch)
			if w.manual {
				t := rec.now()
				if err := s.cl.Kick(); err != nil {
					return err
				}
				if tr != nil {
					tr.kick.record(rec.now() - t)
				}
			}
			if tr != nil {
				tr.inflightSum += float64(inFlight(s.cl.Counters()))
				tr.inflightN++
			}
			if rec.now()-t0 >= int64(len(wins))*winDur {
				wins = append(wins, s.sample())
				if len(wins) > nWin {
					break
				}
				rec.win.Store(int32(len(wins)))
			}
		}
		if err := s.cl.Flush(ctx); err != nil {
			return err
		}
		res.wall = time.Duration(rec.now() - t0)
		_, err := s.cl.Stats(ctx)
		return err
	})
	if err != nil {
		return err
	}
	res.ctr1, res.snap1 = s.cl.Counters(), s.eng.Snapshot()
	res.cycles = res.snap1.Cycle - res.snap0.Cycle

	var rates, cpus, allocs []float64
	for i := 1; i < len(wins); i++ {
		a, b := wins[i-1], wins[i]
		n := float64(b.resolved - a.resolved)
		if n == 0 {
			continue
		}
		rates = append(rates, n/time.Duration(b.at-a.at).Seconds())
		cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/n)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
	}
	res.rateWin, res.cpuWin = rates, cpus
	res.reqPerS, res.cpuUsReq, res.allocsReq = median(rates), median(cpus), median(allocs)
	for i := 1; i <= nWin; i++ {
		h := &s.rec.lat[i]
		res.lat.merge(h)
		if h.n > 0 {
			res.latWin[0] = append(res.latWin[0], h.quantile(0.5))
			res.latWin[1] = append(res.latWin[1], h.quantile(0.9))
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapInuse) / 1e6
	if s.cc != nil {
		c := s.cc.counts()
		res.txBytes, res.rxBytes = c[0]-cc0[0], c[1]-cc0[1]
		res.txWrites, res.rxReads = c[2]-cc0[2], c[3]-cc0[3]
	}
	s.check(res)
	return nil
}

// check reconciles the client ledger against the engine's and counts
// every failed operation of the timed phase against those attempted.
func (s *stack) check(res *result) {
	c0, c1 := res.ctr0, res.ctr1
	sn := res.snap1
	res.attempted = c1.Issued - c0.Issued
	res.mismatches = s.rec.mismatches.Load()
	viol := c1.LatencyViolations
	drops := c1.Drops - c0.Drops
	stalls := c1.Stalls.Total() - c0.Stalls.Total()
	expired := c1.DeadlineExceeded - c0.DeadlineExceeded
	errs := s.rec.errs.Load()
	res.failed = viol + drops + stalls + expired + res.mismatches + errs
	for _, f := range []struct {
		n    uint64
		what string
	}{
		{viol, "fixed-D violations"}, {drops, "drops"}, {stalls, "stalls surfaced to the client"},
		{expired, "deadline expiries"}, {res.mismatches, "data mismatches"}, {errs, "completions with errors"},
	} {
		if f.n != 0 {
			res.problem("%d %s", f.n, f.what)
		}
	}
	if s.cl.Delay() == 0 || s.cl.Delay() != uint64(sn.Delay) {
		res.problem("fixed-D check not armed: client D %d, engine D %d", s.cl.Delay(), sn.Delay)
	}
	if c1.Completions != sn.Completions {
		res.problem("client completions %d != engine completions %d", c1.Completions, sn.Completions)
	}
	if c1.AcceptedWrites != sn.Writes {
		res.problem("client accepted writes %d != engine writes %d", c1.AcceptedWrites, sn.Writes)
	}
	if sn.Outstanding != 0 || sn.OOOPending != 0 {
		res.problem("engine not drained after Flush: outstanding %d, stage %d", sn.Outstanding, sn.OOOPending)
	}
	if got := s.rec.completed.Load(); got != c1.Completions {
		res.problem("%d read callbacks for %d completions", got, c1.Completions)
	}
	if inFlight(c1) != 0 {
		res.problem("%d requests unresolved after Flush", inFlight(c1))
	}
	if res.attempted != res.reqs {
		res.problem("client issued %d requests, generator sent %d", res.attempted, res.reqs)
	}
}
