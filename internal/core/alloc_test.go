package core

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/coded"
)

// TestTickAllocationFree pins the hot-path contract behind the
// repository's throughput claims: once the controller is warm (write
// buffers pooled, the backing store's touched words populated), a full
// interface cycle — request issue plus Tick — allocates nothing.
func TestTickAllocationFree(t *testing.T) {
	cases := []struct {
		name       string
		writeFrac  float64
		cfg        Config
		warmCycles int
	}{
		{"uniform-reads", 0, Config{WordBytes: 8, HashSeed: 1}, 2000},
		{"read-write-mix", 0.25, Config{WordBytes: 8, HashSeed: 2}, 20000},
		{"many-banks", 0, Config{Banks: 512, QueueDepth: 8, DelayRows: 16, WordBytes: 8, HashSeed: 3}, 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(11, 17))
			data := []byte{0xab, 0xcd}
			// Bound the address space so the warmup populates every
			// word the measured phase can write to (map inserts are a
			// cold-path cost, not a per-cycle one).
			step := func() {
				addr := rng.Uint64() & 0xffff
				if rng.Float64() < tc.writeFrac {
					c.Write(addr, data) //nolint:errcheck // a rare stall just wastes the slot
				} else {
					c.Read(addr) //nolint:errcheck // a rare stall just wastes the slot
				}
				c.Tick()
			}
			for i := 0; i < tc.warmCycles; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				t.Fatalf("steady-state request+Tick allocates %.2f objects/cycle, want 0", allocs)
			}
		})
	}
}

// TestTickAllocationFreeLongChurn holds the zero-alloc contract over
// millions of cycles of CAM churn, not just a short window after
// warm-up: uniform reads over a large address space insert and delete a
// fresh address on nearly every accepted read, and a growable hash map
// in the CAM's place keeps allocating long after warm-up.
func TestTickAllocationFreeLongChurn(t *testing.T) {
	c, err := New(Config{Banks: 32, DelayRows: 64, WordBytes: 8, HashSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	step := func() {
		c.Read(rng.Uint64() & (1<<24 - 1)) //nolint:errcheck // a rare stall just wastes the slot
		c.Tick()
	}
	for i := 0; i < 20000; i++ {
		step()
	}
	// One P: a preempted goroutine then has no idle P to hand off to,
	// so the scheduler never starts a new OS thread, whose runtime
	// structures would count as heap mallocs mid-measurement.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cycles = 2_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d request+Tick cycles after warm-up allocated %d objects (%d bytes), want 0",
			cycles, n, after.TotalAlloc-before.TotalAlloc)
	}
}

// TestTickAllocationFreeCoded extends the zero-alloc gate to the coded
// multi-port path: K reads per cycle with parity decodes, write-through
// parity RMW, and the due-FIFO multi-delivery all reuse preallocated
// rows and scratch — a warm coded cycle allocates nothing.
func TestTickAllocationFreeCoded(t *testing.T) {
	cfg := Config{WordBytes: 8, HashSeed: 5, Coded: coded.Geometry{Group: 4, K: 2}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const mask = 0x7ff
	data := []byte{0xab, 0xcd}
	// Deterministically populate every word the measured phase can
	// touch: the backing, shadow, and parity stores all insert
	// map entries on first write (a cold-path cost, not a per-cycle
	// one), so sweep the whole bounded address space first.
	for a := uint64(0); a <= mask; a++ {
		for {
			werr := c.Write(a, data)
			c.Tick()
			if werr == nil {
				break
			}
			if !IsStall(werr) {
				t.Fatal(werr)
			}
		}
	}
	rng := rand.New(rand.NewPCG(11, 17))
	step := func() {
		if rng.Float64() < 0.25 {
			c.Write(rng.Uint64()&mask, data) //nolint:errcheck // a rare stall just wastes the slot
		} else {
			c.Read(rng.Uint64() & mask) //nolint:errcheck // a rare stall just wastes the slot
			c.Read(rng.Uint64() & mask) //nolint:errcheck // second port; stalls and decodes are both fine
		}
		c.Tick()
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state coded request+Tick allocates %.2f objects/cycle, want 0", allocs)
	}
}
