package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The replays below feed the timed phase's own request stream (the
// same seed and stream id, so the same requests in the same order)
// through one layer at a time, through that layer's public API. Their
// per-call times are self times: what the layer costs with nothing
// above or below it waiting.

// replayLen caps the requests each replay feeds.
const replayLen = 1 << 19

// clock is a monotonic nanosecond clock with its own read cost
// measured, so per-call timings can subtract it.
type clock struct {
	base     time.Time
	overhead float64 // ns one now() call adds to a measured interval
}

func newClock() *clock {
	c := &clock{base: time.Now()}
	const n = 1 << 16
	best := math.MaxFloat64
	for r := 0; r < 5; r++ {
		t0 := c.now()
		for i := 0; i < n; i++ {
			_ = c.now()
		}
		if per := float64(c.now()-t0) / n; per < best {
			best = per
		}
	}
	c.overhead = best
	return c
}

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// timer accumulates per-call durations net of the clock's own cost.
type timer struct {
	ns    float64
	calls uint64
}

func (t *timer) add(c *clock, d int64) {
	t.ns += float64(d) - c.overhead
	t.calls++
}

func (t *timer) mean() float64 {
	if t.calls == 0 {
		return 0
	}
	return math.Max(t.ns/float64(t.calls), 0)
}

// prefillMemory writes g(addr) to every word of the workload's space
// directly through the Memory, then ticks it quiescent — the same
// steady state the end-to-end set-up reaches through the client.
func prefillMemory(m *multichannel.Memory, space uint64) error {
	var buf [8]byte
	for a := uint64(0); a < space; a++ {
		for tries := 0; ; tries++ {
			err := m.Write(a, wordOf(a, buf[:]))
			if err == nil {
				break
			}
			if err != multichannel.ErrChannelBusy && !core.IsStall(err) || tries > 1<<16 {
				return fmt.Errorf("prefill write %d: %w", a, err)
			}
			m.Tick()
		}
	}
	for m.IdleCycles() != ^uint64(0) {
		m.Tick()
	}
	return nil
}

func replayMemory(w *workload) (*multichannel.Memory, error) {
	m, err := newMemory(w, nil)
	if err != nil {
		return nil, err
	}
	if w.prefill {
		if err := prefillMemory(m, w.space); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// wireStats is the codec replay's result, per record.
type wireStats struct {
	reqEnc, reqDec, compEnc, compDec, allocs float64
}

// wireReplay encodes the stream's requests in frames of reqBatch
// records and its read completions in frames of compBatch, then
// decodes both, through the public codec.
func wireReplay(ops []op, reqBatch, compBatch int, delay uint64) (wireStats, error) {
	var ws wireStats
	slab := make([]byte, 8*len(ops))
	reqs := make([]wire.Request, len(ops))
	var comps []wire.Completion
	for i, o := range ops {
		d := wordOf(o.addr, slab[8*i:8*i])
		if o.write {
			reqs[i] = wire.Request{Op: wire.OpWrite, Seq: uint64(i), Addr: o.addr, Data: d}
			continue
		}
		reqs[i] = wire.Request{Op: wire.OpRead, Seq: uint64(i), Addr: o.addr}
		comps = append(comps, wire.Completion{Seq: uint64(i), Addr: o.addr, IssuedAt: uint64(i), DeliveredAt: uint64(i) + delay, Data: d})
	}
	// Each loop runs twice and the second pass is measured: the first
	// grows the output buffer to its working size.
	twice := func(f func() error) (time.Duration, uint64, error) {
		if err := f(); err != nil {
			return 0, 0, err
		}
		m0, t0 := mallocs(), time.Now()
		err := f()
		return time.Since(t0), mallocs() - m0, err
	}
	var buf []byte
	encode := func(n, batch int, app func(dst []byte, lo, hi int) ([]byte, error)) error {
		buf = buf[:0]
		for lo := 0; lo < n; lo += batch {
			var err error
			if buf, err = app(buf, lo, min(lo+batch, n)); err != nil {
				return err
			}
		}
		return nil
	}
	decode := func() error {
		var f wire.Frame
		for b := buf; len(b) > 0; {
			l := int(binary.BigEndian.Uint32(b))
			if err := wire.DecodeFrame(b[4:4+l], &f); err != nil {
				return err
			}
			b = b[4+l:]
		}
		return nil
	}
	var allocs uint64
	per := func(n int) func(time.Duration, uint64, error) (float64, error) {
		return func(d time.Duration, a uint64, err error) (float64, error) {
			allocs += a
			return float64(d) / float64(max(n, 1)), err
		}
	}
	var err error
	if ws.reqEnc, err = per(len(reqs))(twice(func() error {
		return encode(len(reqs), reqBatch, func(dst []byte, lo, hi int) ([]byte, error) {
			return wire.AppendRequests(dst, 0, reqs[lo:hi])
		})
	})); err != nil {
		return ws, err
	}
	if ws.reqDec, err = per(len(reqs))(twice(decode)); err != nil {
		return ws, err
	}
	if ws.compEnc, err = per(len(comps))(twice(func() error {
		return encode(len(comps), compBatch, func(dst []byte, lo, hi int) ([]byte, error) {
			return wire.AppendCompletions(dst, 0, comps[lo:hi])
		})
	})); err != nil {
		return ws, err
	}
	if ws.compDec, err = per(len(comps))(twice(decode)); err != nil {
		return ws, err
	}
	ws.allocs = float64(allocs) / float64(len(reqs))
	return ws, nil
}

// serverStats is the engine-only replay's result.
type serverStats struct {
	nsPerReq, allocsPerReq float64
}

// serverReplay pre-encodes the stream into request frames, writes them
// to a connection served by a fresh Engine, and drains the replies and
// completions with a wire.Decoder. A closing flush barrier marks the
// end. The first pass warms the engine's pools; the second is timed.
func serverReplay(w *workload, ops []op, batch int) (serverStats, error) {
	var ss serverStats
	mem, err := replayMemory(w)
	if err != nil {
		return ss, err
	}
	eng, err := newEngine(w, mem)
	if err != nil {
		return ss, err
	}
	s := &stack{w: w, mem: mem, eng: eng}
	defer s.close()
	frames := func(ops []op) ([]byte, error) {
		var buf []byte
		data := make([]byte, 8*batch)
		reqs := make([]wire.Request, 0, batch)
		for lo := 0; lo < len(ops); lo += batch {
			reqs = reqs[:0]
			for i, o := range ops[lo:min(lo+batch, len(ops))] {
				r := wire.Request{Op: wire.OpRead, Seq: uint64(lo + i), Addr: o.addr}
				if o.write {
					r.Op, r.Data = wire.OpWrite, wordOf(o.addr, data[8*i:8*i])
				}
				reqs = append(reqs, r)
			}
			var err error
			if buf, err = wire.AppendRequests(buf, 0, reqs); err != nil {
				return nil, err
			}
		}
		return wire.AppendRequests(buf, 0, []wire.Request{{Op: wire.OpFlush, Seq: uint64(len(ops))}})
	}
	pass := func(ops []op) (time.Duration, uint64, error) {
		buf, err := frames(ops)
		if err != nil {
			return 0, 0, err
		}
		var reads uint64
		for _, o := range ops {
			if !o.write {
				reads++
			}
		}
		nc, err := s.dial()
		if err != nil {
			return 0, 0, err
		}
		defer nc.Close()
		if err := nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return 0, 0, err
		}
		m0 := mallocs()
		t0 := time.Now()
		werr := make(chan error, 1)
		go func() {
			_, err := nc.Write(buf)
			werr <- err
		}()
		dec := wire.NewDecoder(nc)
		var comps, accepted uint64
		flushed := false
		for !flushed || comps < reads {
			f, err := dec.Next()
			if err != nil {
				nc.Close()
				<-werr
				return 0, 0, fmt.Errorf("engine replay: %w after %d/%d completions", err, comps, reads)
			}
			switch f.Type {
			case wire.FrameCompletions:
				for i := range f.Completions {
					if c := &f.Completions[i]; !wordOK(c.Addr, c.Data) {
						return 0, 0, fmt.Errorf("engine replay: read of %d returned a wrong word", c.Addr)
					}
				}
				comps += uint64(len(f.Completions))
			case wire.FrameReplies:
				for _, r := range f.Replies {
					switch r.Status {
					case wire.StatusAccepted:
						accepted++
					case wire.StatusFlushed:
						flushed = true
					default:
						return 0, 0, fmt.Errorf("engine replay: request %d refused (status %d, code %d)", r.Seq, r.Status, r.Code)
					}
				}
			}
		}
		d := time.Since(t0)
		if err := <-werr; err != nil {
			return 0, 0, fmt.Errorf("engine replay write: %w", err)
		}
		if accepted+comps != uint64(len(ops)) {
			return 0, 0, fmt.Errorf("engine replay: %d accepts + %d completions for %d requests", accepted, comps, len(ops))
		}
		return d, mallocs() - m0, nil
	}
	if _, _, err := pass(ops[:min(len(ops), 1<<16)]); err != nil {
		return ss, err
	}
	d, allocs, err := pass(ops)
	if err != nil {
		return ss, err
	}
	ss.nsPerReq = float64(d) / float64(len(ops))
	ss.allocsPerReq = float64(allocs) / float64(len(ops))
	return ss, nil
}

// mcStats is the multichannel replay's result.
type mcStats struct {
	tick, read, write, admit, sweep     float64 // ns per call
	busyPerReq, bypassPerReq, stallsReq float64
	reqPerCycle, allocsPerReq           float64
	cycles                              uint64
}

// mcReplay drives the stream straight into a Memory. Every workload
// gets the in-order replay — Read/Write at the head until the channel
// refuses, then Tick, as the engine's in-order sweep does — which times
// Read and Write and counts channel-busy refusals. Out-of-order
// workloads also get the Stage replay (Admit until the head's ring is
// full, Sweep, Tick), and their req/cycle, Tick time and allocations
// come from it.
func mcReplay(w *workload, ops []op) (mcStats, error) {
	var ms mcStats
	clk := newClock()
	var data [8]byte
	check := func(comps []core.Completion) error {
		for i := range comps {
			if !wordOK(comps[i].Addr, comps[i].Data) {
				return fmt.Errorf("multichannel replay: read of %d returned a wrong word", comps[i].Addr)
			}
		}
		return nil
	}
	drain := func(m *multichannel.Memory) error {
		for m.Outstanding() > 0 {
			if err := check(m.Tick()); err != nil {
				return err
			}
		}
		return nil
	}

	m, err := replayMemory(w)
	if err != nil {
		return ms, err
	}
	var tick, rd, wr timer
	var stalls uint64
	m0 := mallocs()
	cycles := uint64(0)
	for i := 0; i < len(ops); {
		for budget := m.Ports(); budget > 0 && i < len(ops); {
			o := ops[i]
			t := clk.now()
			if o.write {
				err = m.Write(o.addr, wordOf(o.addr, data[:]))
				wr.add(clk, clk.now()-t)
			} else {
				_, err = m.Read(o.addr)
				rd.add(clk, clk.now()-t)
			}
			if err == nil {
				i++
				budget--
				continue
			}
			if core.IsStall(err) {
				stalls++
			} else if err != multichannel.ErrChannelBusy {
				return ms, fmt.Errorf("multichannel replay: %w", err)
			}
			break
		}
		t := clk.now()
		comps := m.Tick()
		tick.add(clk, clk.now()-t)
		cycles++
		if err := check(comps); err != nil {
			return ms, err
		}
	}
	allocs := mallocs() - m0
	if err := drain(m); err != nil {
		return ms, err
	}
	_, _, busy, _ := m.Stats()
	n := float64(len(ops))
	ms.read, ms.write, ms.tick = rd.mean(), wr.mean(), tick.mean()
	ms.busyPerReq = float64(busy) / n
	ms.stallsReq = float64(stalls) / n
	ms.reqPerCycle, ms.allocsPerReq, ms.cycles = n/float64(cycles), float64(allocs)/n, cycles
	if !w.ooo {
		return ms, nil
	}

	if m, err = replayMemory(w); err != nil {
		return ms, err
	}
	var sinkErr error
	st := multichannel.NewStage(m, 0, func(p *multichannel.Pending, tag uint64, err error) bool {
		if err != nil && !core.IsStall(err) && sinkErr == nil {
			sinkErr = err
		}
		return err == nil
	}, telemetry.NewRegistry())
	var admit, sweep timer
	tick = timer{}
	m0 = mallocs()
	cycles = 0
	for i := 0; i < len(ops) || st.Len() > 0; {
		for i < len(ops) {
			o := ops[i]
			p := multichannel.Pending{Addr: o.addr, Write: o.write}
			if o.write {
				p.Data = wordOf(o.addr, data[:])
			}
			t := clk.now()
			ok := st.Admit(p)
			admit.add(clk, clk.now()-t)
			if !ok {
				break
			}
			i++
		}
		t := clk.now()
		st.Sweep()
		sweep.add(clk, clk.now()-t)
		t = clk.now()
		comps := m.Tick()
		tick.add(clk, clk.now()-t)
		cycles++
		if err := check(comps); err != nil {
			return ms, err
		}
		if sinkErr != nil {
			return ms, fmt.Errorf("stage replay: %w", sinkErr)
		}
	}
	allocs = mallocs() - m0
	if err := drain(m); err != nil {
		return ms, err
	}
	ss := st.Stats()
	ms.admit, ms.sweep, ms.tick = admit.mean(), sweep.mean(), tick.mean()
	ms.bypassPerReq = float64(ss.Bypasses) / n
	ms.reqPerCycle, ms.allocsPerReq, ms.cycles = n/float64(cycles), float64(allocs)/n, cycles
	return ms, nil
}

// coreTick replays channel 0's share of the stream into one
// core.Controller configured as channel 0, offering requests at rate
// per cycle (the channel's share of the run's req/cycle), and returns
// the mean Tick time.
func coreTick(w *workload, ops []op, rate float64) (float64, error) {
	m, err := newMemory(w, nil)
	if err != nil {
		return 0, err
	}
	cfg := w.mem
	cfg.HashSeed = memSeed // multichannel keys channel 0 with the memory seed
	ctrl, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	var data [8]byte
	if w.prefill {
		for a := uint64(0); a < w.space; a++ {
			if m.Channel(a) != 0 {
				continue
			}
			for ctrl.Write(a, wordOf(a, data[:])) != nil {
				ctrl.Tick()
			}
			ctrl.Tick()
		}
		for ctrl.IdleCycles() != ^uint64(0) {
			ctrl.Tick()
		}
	}
	var mine []op
	for _, o := range ops {
		if m.Channel(o.addr) == 0 {
			mine = append(mine, o)
		}
	}
	clk := newClock()
	var tick timer
	credit := 0.0
	for i := 0; i < len(mine) || ctrl.Outstanding() > 0; {
		if credit += rate; i < len(mine) && credit >= 1 {
			o := mine[i]
			if o.write {
				err = ctrl.Write(o.addr, wordOf(o.addr, data[:]))
			} else {
				_, err = ctrl.Read(o.addr)
			}
			switch {
			case err == nil:
				i++
				credit--
			case !core.IsStall(err):
				return 0, fmt.Errorf("core replay: %w", err)
			}
		}
		t := clk.now()
		ctrl.Tick()
		tick.add(clk, clk.now()-t)
	}
	return tick.mean(), nil
}
