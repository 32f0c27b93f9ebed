// Package multichannel stripes a virtually pipelined memory across
// several independent VPNM controllers (channels) to scale past one
// request per interface cycle — the direction Kumar, Crowley and
// Turner's randomized multichannel packet storage explored, but with
// each channel individually immune to bank conflicts, which their
// scheme could not handle. A universal hash picks the channel, a
// per-channel VPNM controller does the rest, and every read still
// completes in exactly D cycles.
//
// The price of channel striping is the same one the paper charges at
// bank granularity: two same-cycle requests can collide on a channel
// (reported as ErrChannelBusy), with probability 1/C per pair — the
// interface-level analogue of a bank conflict, and the reason channel
// counts follow the same birthday arithmetic as banks.
package multichannel

import (
	"errors"
	"fmt"

	"repro/internal/coded"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// ErrChannelBusy reports that the target channel already accepted a
// request this cycle; the caller retries next cycle or routes other
// traffic first.
var ErrChannelBusy = errors.New("multichannel: channel already busy this cycle")

// Memory is a striped set of VPNM controllers.
type Memory struct {
	chans []*core.Controller
	sel   hash.Func
	mask  uint64

	// tag translation: per-channel tags are dense; global tags encode
	// the channel in the low bits so completions stay self-describing.
	shift uint

	reads, writes, busy uint64

	// Completion staging. The sequential Tick appends each channel's
	// re-tagged completions straight into comps. With a worker pool,
	// each channel ticks into its own pre-sized perChan buffer (at most
	// Ports()/Channels() completions per channel per cycle), and Tick
	// merges the buffers into comps in channel order — the same order
	// the sequential loop produces, which is what makes the parallel
	// path cycle-for-cycle identical to the sequential one. All slices
	// are reused across ticks, so the steady state allocates nothing.
	comps   []core.Completion
	perChan [][]core.Completion

	// Parallel dispatch. The C controllers share no state, so their
	// ticks can run concurrently; pool is nil in sequential mode.
	// tickFn is the method value bound once at construction — binding
	// it per Tick would allocate a closure on every cycle.
	pool   *parallel.Pool
	tickFn func(int)
}

// Option configures optional Memory behaviour.
type Option func(*options)

type options struct {
	parallel bool
	workers  int
	probes   func(ch int) telemetry.Probe
	tracers  func(ch int) core.Tracer
}

// Parallel dispatches the per-channel work of every Tick across a
// persistent worker pool when on is true. The channels are fully
// independent controllers, so parallel execution is exact: completions,
// tags, statistics and timing are cycle-for-cycle identical to the
// sequential path at any worker count (the differential test pins
// this). Memories with a pool hold worker goroutines; call Close when
// done with the Memory.
func Parallel(on bool) Option { return func(o *options) { o.parallel = on } }

// PoolWorkers bounds the tick pool size; <= 0 (the default) selects
// GOMAXPROCS. It has no effect without Parallel(true).
func PoolWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithProbes attaches a telemetry probe to each channel's controller: f
// is called once per channel at construction and may return nil to
// leave that channel unprobed. With Parallel(true) the probes are
// updated from pool workers, so implementations must be safe for
// concurrent use across channels (telemetry.MemProbe is).
func WithProbes(f func(ch int) telemetry.Probe) Option {
	return func(o *options) { o.probes = f }
}

// WithTracers attaches a core.Tracer to each channel's controller, the
// event-trace analogue of WithProbes (telemetry.EventTrace.ForChannel
// is the standard source).
func WithTracers(f func(ch int) core.Tracer) Option {
	return func(o *options) { o.tracers = f }
}

// New builds a striped memory of `channels` (a power of two) identical
// controllers. Each channel gets an independently seeded bank hash;
// the channel selector is seeded separately so bank and channel
// randomization are independent.
func New(cfg core.Config, channels int, seed uint64, opts ...Option) (*Memory, error) {
	if channels < 1 || channels&(channels-1) != 0 {
		return nil, fmt.Errorf("multichannel: channels must be a positive power of two, got %d", channels)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	bits := 1
	for 1<<bits < channels {
		bits++
	}
	ports := cfg.Coded.ReadPorts()
	m := &Memory{
		sel:   hash.NewH3(bits, seed^0x5bd1e995),
		mask:  uint64(channels - 1),
		shift: uint(bits),
		// Per-cycle completion ceilings scale with the coded read
		// admission cap: each channel can deliver up to ReadPorts words.
		comps: make([]core.Completion, 0, channels*ports),
	}
	for i := 0; i < channels; i++ {
		c := cfg
		c.HashSeed = seed + uint64(i)*0x9e3779b9
		if o.probes != nil {
			c.Probe = o.probes(i)
		}
		if o.tracers != nil {
			c.Trace = o.tracers(i)
		}
		ctrl, err := core.New(c)
		if err != nil {
			return nil, err
		}
		m.chans = append(m.chans, ctrl)
	}
	if o.parallel && channels > 1 {
		m.pool = parallel.NewPool(parallel.Workers(o.workers, channels))
		m.tickFn = m.tickChannel
		m.perChan = make([][]core.Completion, channels)
		for i := range m.perChan {
			m.perChan[i] = make([]core.Completion, 0, ports)
		}
	}
	return m, nil
}

// ParallelEnabled reports whether Tick dispatches across a worker pool.
func (m *Memory) ParallelEnabled() bool { return m.pool != nil }

// Close releases the tick pool's worker goroutines, if any. The Memory
// itself stays usable (sequentially) after Close.
func (m *Memory) Close() {
	if m.pool != nil {
		m.pool.Close()
		m.pool = nil
	}
}

// Channels reports the stripe width.
func (m *Memory) Channels() int { return len(m.chans) }

// Coded reports the channels' shared coded-bank geometry (the zero
// Geometry when XOR-parity bank groups are disabled).
func (m *Memory) Coded() coded.Geometry { return m.chans[0].Config().Coded }

// Ports reports the memory's per-cycle read admission ceiling:
// Channels() times each channel's coded read-port count (1 uncoded).
// The serving engine sizes its per-step issue budget from this.
func (m *Memory) Ports() int { return len(m.chans) * m.chans[0].Config().Coded.ReadPorts() }

// Channel reports which channel serves addr.
func (m *Memory) Channel(addr uint64) int { return int(m.sel.Hash(addr) & m.mask) }

// Delay returns the uniform normalized delay of the channels.
func (m *Memory) Delay() int { return m.chans[0].Delay() }

// Cycle returns the current interface cycle. All channels share one
// clock, so any channel's cycle is the memory's cycle.
func (m *Memory) Cycle() uint64 { return m.chans[0].Cycle() }

// SplitTag decomposes a completion tag into the channel that served the
// request and that channel's dense per-controller tag. The serving
// engine uses the pair to index its preallocated per-channel route
// rings instead of a map.
func (m *Memory) SplitTag(tag uint64) (ch int, chanTag uint64) {
	return int(tag & m.mask), tag >> m.shift
}

// readOn issues a read on channel ch, which must be Channel(addr). It
// reports the raw controller errors (core.ErrSecondRequest when the
// channel's ports are spent this cycle) — the out-of-order stage keys
// its per-channel sweep off them; Read remaps to ErrChannelBusy for the
// one-request-per-call interface.
func (m *Memory) readOn(ch int, addr uint64) (tag uint64, err error) {
	t, err := m.chans[ch].Read(addr)
	if err != nil {
		return 0, err
	}
	m.reads++
	return t<<m.shift | uint64(ch), nil
}

// writeOn issues a write on channel ch, which must be Channel(addr).
func (m *Memory) writeOn(ch int, addr uint64, data []byte) error {
	if err := m.chans[ch].Write(addr, data); err != nil {
		return err
	}
	m.writes++
	return nil
}

// Read issues a read on addr's channel. Up to Ports() reads (plus one
// write per channel) can be accepted per cycle — at most one read per
// channel, or the coded read-port count when coding is enabled.
func (m *Memory) Read(addr uint64) (tag uint64, err error) {
	tag, err = m.readOn(m.Channel(addr), addr)
	if err == core.ErrSecondRequest {
		m.busy++
		return 0, ErrChannelBusy
	}
	return tag, err
}

// Write issues a write on addr's channel.
func (m *Memory) Write(addr uint64, data []byte) error {
	err := m.writeOn(m.Channel(addr), addr, data)
	if err == core.ErrSecondRequest {
		m.busy++
		return ErrChannelBusy
	}
	return err
}

// Rekey re-keys every channel's bank hash in unison: each channel
// drains, swaps its universal hash for one drawn from a fresh
// per-channel seed, and pays its own relocation cost; the shared clock
// is then realigned by fast-forwarding the cheaper channels (quiescent
// after their own rekey, so the skip is O(1)) to the most expensive
// one. The channel-selector hash is NOT rekeyed — addresses keep their
// channel, so requests parked above the memory (e.g. in an out-of-order
// issue stage) stay correctly routed across a rekey.
//
// Completions that were still in flight when the drain began are
// returned re-tagged (their Data copied); each is still delivered
// exactly D cycles after its issue — draining ticks are ordinary
// interface cycles.
func (m *Memory) Rekey(newSeed uint64) ([]core.Completion, error) {
	var drained []core.Completion
	for ch, c := range m.chans {
		_, _, comps, err := c.Rekey(newSeed + uint64(ch)*0x9e3779b9)
		if err != nil {
			return drained, err
		}
		for _, comp := range comps {
			comp.Tag = comp.Tag<<m.shift | uint64(ch)
			drained = append(drained, comp)
		}
	}
	var max uint64
	for _, c := range m.chans {
		if c.Cycle() > max {
			max = c.Cycle()
		}
	}
	for _, c := range m.chans {
		if d := max - c.Cycle(); d > 0 {
			if c.SkipIdle(d) != d {
				return drained, fmt.Errorf("multichannel: channel refused the post-rekey clock realignment")
			}
		}
	}
	return drained, nil
}

// Tick advances every channel one cycle and merges their completions
// (re-tagged with the channel id) in channel order. Up to Ports()
// completions can arrive per cycle; each Data slice is valid until the
// next Tick, as with a single controller. With the Parallel option the
// channel ticks run concurrently on the pool; the merge order and every
// completion are identical to the sequential path.
func (m *Memory) Tick() []core.Completion {
	m.comps = m.comps[:0]
	if m.pool != nil {
		m.pool.Run(len(m.chans), m.tickFn)
		for ch := range m.chans {
			m.comps = append(m.comps, m.perChan[ch]...)
		}
		return m.comps
	}
	for ch, c := range m.chans {
		comps := c.Tick()
		for i := range comps {
			m.comps = append(m.comps, comps[i])
			m.comps[len(m.comps)-1].Tag = comps[i].Tag<<m.shift | uint64(ch)
		}
	}
	return m.comps
}

// tickChannel advances one channel and stages its (re-tagged)
// completions for the pool path. Channels share no state, so distinct
// indices are safe to run concurrently.
func (m *Memory) tickChannel(ch int) {
	buf := m.perChan[ch][:0]
	for _, comp := range m.chans[ch].Tick() {
		comp.Tag = comp.Tag<<m.shift | uint64(ch)
		buf = append(buf, comp)
	}
	m.perChan[ch] = buf
}

// IdleCycles reports how many upcoming interface cycles are guaranteed
// event-free on every channel: the minimum of the channels' own idle
// spans (0 as soon as any channel has queued or in-flight work,
// ^uint64(0) when the whole memory is quiescent).
func (m *Memory) IdleCycles() uint64 {
	span := ^uint64(0)
	for _, c := range m.chans {
		if s := c.IdleCycles(); s < span {
			if s == 0 {
				return 0
			}
			span = s
		}
	}
	return span
}

// SkipIdle fast-forwards every channel by min(n, IdleCycles()) cycles —
// the channels share one clock, so they always skip in unison — and
// returns the cycles skipped. It is exactly equivalent to ticking that
// many times (no completion can occur inside an idle span) at O(1) cost
// per channel; the sim drain loop and the serving engine use it to skip
// the dead cycles of a delivery wait.
func (m *Memory) SkipIdle(n uint64) uint64 {
	k := m.IdleCycles()
	if k > n {
		k = n
	}
	if k == 0 {
		return 0
	}
	for _, c := range m.chans {
		if got := c.SkipIdle(k); got != k {
			panic("multichannel: channel refused an idle skip within its reported span")
		}
	}
	return k
}

// Outstanding sums undelivered reads across channels.
func (m *Memory) Outstanding() uint64 {
	var n uint64
	for _, c := range m.chans {
		n += c.Outstanding()
	}
	return n
}

// Stats aggregates per-channel statistics plus the channel-conflict
// count. It is allocation-free, so the serving engine can publish it
// into its ledger every cycle.
func (m *Memory) Stats() (reads, writes, channelBusy, stalls uint64) {
	for _, c := range m.chans {
		stalls += c.StallsTotal()
	}
	return m.reads, m.writes, m.busy, stalls
}

// ChannelStats snapshots channel ch's full controller ledger — the
// ground truth the telemetry reconciliation tests compare probe
// counters against.
func (m *Memory) ChannelStats(ch int) core.Stats { return m.chans[ch].Stats() }
