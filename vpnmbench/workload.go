package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
)

// workload is one traffic mix. The three mixes stress different layers:
// ooo-read-pipe loads the out-of-order stage and controller Tick with no
// kernel socket, inorder-mixed-tcp loads the socket, flusher and write
// paths while bypassing the stage, and paced-read-tcp measures the same
// OOO stack at light load, where per-frame cost and clock wake-ups set
// latency.
type workload struct {
	name, why string

	mem      core.Config
	channels int
	ooo      bool // out-of-order issue stage in the engine
	lockstep bool // deterministic engine clock; free-running otherwise
	tcp      bool // 127.0.0.1 loopback; net.Pipe otherwise

	window   int  // client in-flight window
	maxBatch int  // client frame size
	manual   bool // ManualBatch client: the generator Kicks every batch
	batch    int  // requests the generator issues between clock checks (and Kicks)

	writeFrac float64 // share of writes in the generated stream
	space     uint64  // address space, in words

	prefill bool // write every word before timing
	warmOps int  // requests issued and drained during set-up

	// Open loop: bursts of batch reads every period, timed from the
	// burst's due time. Zero period means a closed loop.
	period time.Duration
}

// memCfg is the per-channel controller geometry the loopback gates use.
func memCfg(banks int) core.Config {
	return core.Config{Banks: banks, QueueDepth: 16, DelayRows: 64, WordBytes: 8}
}

var workloads = []workload{
	{
		name: "ooo-read-pipe",
		why:  "headline protocol configuration: lockstep OOO issue over net.Pipe, reads only, so req/cycle is exact and the stage, Tick and delivery dominate",
		mem:  memCfg(32), channels: 4, ooo: true, lockstep: true,
		window: 8192, maxBatch: 64, manual: true, batch: 64,
		space: 1 << 24, warmOps: 2048 * 64,
	},
	{
		name: "inorder-mixed-tcp",
		why:  "default vpnmd deployment: in-order issue over real loopback TCP with 25% writes, exercising socket, flusher and write paths and bypassing the OOO stage",
		mem:  memCfg(8), channels: 4, tcp: true,
		window: 4096, maxBatch: 256, batch: 64,
		writeFrac: 0.25, space: 1 << 18, prefill: true, warmOps: 1 << 17,
	},
	{
		name: "paced-read-tcp",
		why:  "light open-loop load (64 reads every 1 ms) on the OOO stack over TCP: clock park/wake, idle skips and per-frame cost set the latency a line card sees",
		mem:  memCfg(32), channels: 4, ooo: true, tcp: true,
		window: 8192, maxBatch: 64, manual: true, batch: 64,
		space: 1 << 24, warmOps: 256 * 64, period: time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) transport() string {
	if w.tcp {
		return "tcp 127.0.0.1 loopback (no real link crossed)"
	}
	return "net.Pipe (in-process)"
}

// Request-stream identities: set-up and the timed phase draw from
// different PCG streams of the same seed, so the timed stream — and
// the replays of it — do not depend on how much set-up consumed.
const (
	streamSetup = 1
	streamTimed = 2
)

// op is one generated request.
type op struct {
	write bool
	addr  uint64
}

// stream is the seeded request generator. The program under test only
// ever sees the requests it yields.
type stream struct {
	rng       *rand.Rand
	space     uint64
	writeFrac float64
}

func newStream(w *workload, seed uint64, id uint64) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, id)), space: w.space, writeFrac: w.writeFrac}
}

func (s *stream) next() op {
	o := op{addr: s.rng.Uint64N(s.space)}
	if s.writeFrac > 0 {
		o.write = s.rng.Float64() < s.writeFrac
	}
	return o
}

// ops returns the first n requests of a fresh stream.
func (w *workload) ops(seed uint64, id uint64, n int) []op {
	s := newStream(w, seed, id)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// wordOf is g(addr): the only value any write of addr ever stores. It
// is never all-zero, so a read must return either 0 (never written) or
// exactly this word.
func wordOf(addr uint64, dst []byte) []byte {
	z := addr + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return binary.LittleEndian.AppendUint64(dst[:0], z)
}

// wordOK reports whether data is a legal read result for addr.
func wordOK(addr uint64, data []byte) bool {
	if len(data) != 8 {
		return false
	}
	v := binary.LittleEndian.Uint64(data)
	if v == 0 {
		return true
	}
	var buf [8]byte
	return v == binary.LittleEndian.Uint64(wordOf(addr, buf[:]))
}
