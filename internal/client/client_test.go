package client_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/recovery"
	"repro/internal/server"
)

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

// pipeClient wires a fresh client to a fresh engine over net.Pipe.
func pipeClient(t *testing.T, scfg server.Config, mcfg core.Config, channels int, ccfg client.Config) (*client.Client, *server.Engine, *multichannel.Memory) {
	t.Helper()
	mem, err := multichannel.New(mcfg, channels, 1)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Mem = mem
	eng, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cn, sn := net.Pipe()
	if err := eng.ServeConn(sn); err != nil {
		t.Fatal(err)
	}
	c := client.New(cn, ccfg)
	t.Cleanup(func() { c.Close() })
	return c, eng, mem
}

func smallCfg() core.Config {
	return core.Config{Banks: 8, QueueDepth: 16, DelayRows: 64, WordBytes: 8}
}

func TestReadWriteFlushStats(t *testing.T) {
	c, _, mem := pipeClient(t, server.Config{}, smallCfg(), 2, client.Config{})
	tctx := ctx(t)

	s, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Delay != uint64(mem.Delay()) || c.Delay() != s.Delay {
		t.Fatalf("Stats taught D=%d (client %d), want %d", s.Delay, c.Delay(), mem.Delay())
	}

	word := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	if err := c.Write(tctx, 0xbeef, word); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []byte
	var comp client.Completion
	calls := 0
	err = c.Read(tctx, 0xbeef, func(cm client.Completion) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		comp = cm
		got = append([]byte(nil), cm.Data...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("callback fired %d times, want exactly once", calls)
	}
	if comp.Err != nil || !bytes.Equal(got, word) {
		t.Fatalf("completion = %+v data %x, want %x with nil Err", comp, got, word)
	}
	if d := comp.DeliveredAt - comp.IssuedAt; d != uint64(mem.Delay()) {
		t.Fatalf("delta = %d cycles, want D = %d", d, mem.Delay())
	}

	ctr := c.Counters()
	if ctr.Issued != 2 || ctr.Reads != 1 || ctr.Writes != 1 ||
		ctr.AcceptedWrites != 1 || ctr.Completions != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
	if ctr.LatencyViolations != 0 {
		t.Fatalf("%d fixed-D violations", ctr.LatencyViolations)
	}
}

// TestFlushWaitsForCallbacks: Flush is a barrier over callbacks too.
// When it returns, the callback of every read it covers has run to
// completion. The reader runs callbacks inline, so a slow callback
// widens the window in which a flush reply that overtook the
// completions it covers would let Flush return early.
func TestFlushWaitsForCallbacks(t *testing.T) {
	c, _, _ := pipeClient(t, server.Config{}, smallCfg(), 2, client.Config{})
	tctx := ctx(t)
	var ran atomic.Int64
	cb := func(client.Completion) {
		time.Sleep(20 * time.Microsecond)
		ran.Add(1)
	}
	const reads = 64
	deadline := time.Now().Add(2 * time.Second)
	for round := 0; round < 20 && time.Now().Before(deadline); round++ {
		for i := 0; i < reads; i++ {
			if err := c.Read(tctx, uint64(round*reads+i), cb); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(tctx); err != nil {
			t.Fatal(err)
		}
		if got, want := ran.Load(), int64((round+1)*reads); got != want {
			t.Fatalf("round %d: Flush returned with %d of %d callbacks run", round, got, want)
		}
	}
}

// TestStallRetry drives a one-bank queue-depth-one memory through a
// stall-surfacing server; the client's RetryNextCycle policy must
// re-issue every stalled read until all of them complete at exactly D.
func TestStallRetry(t *testing.T) {
	c, _, _ := pipeClient(t,
		server.Config{Policy: recovery.DropWithAccounting},
		core.Config{Banks: 1, QueueDepth: 1, WordBytes: 8}, 1,
		client.Config{Policy: recovery.RetryNextCycle})
	tctx := ctx(t)
	if _, err := c.Stats(tctx); err != nil { // arm the fixed-D check
		t.Fatal(err)
	}

	const n = 32
	var mu sync.Mutex
	errs := 0
	for i := uint64(0); i < n; i++ {
		err := c.Read(tctx, i, func(cm client.Completion) {
			if cm.Err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	ctr := c.Counters()
	mu.Lock()
	defer mu.Unlock()
	if errs != 0 || ctr.Completions != n || ctr.Drops != 0 {
		t.Fatalf("errs=%d counters=%+v, want all %d reads completed", errs, ctr, n)
	}
	if ctr.Stalls.Total() == 0 || ctr.Retries == 0 {
		t.Fatalf("counters=%+v, want stalls surfaced and retried on this geometry", ctr)
	}
	if ctr.LatencyViolations != 0 {
		t.Fatalf("%d fixed-D violations across retries", ctr.LatencyViolations)
	}
}

// TestDropPolicy: with DropWithAccounting on the client too, stalled
// reads resolve their callback with an error wrapping both
// recovery.ErrDropped and the stall cause.
func TestDropPolicy(t *testing.T) {
	c, _, _ := pipeClient(t,
		server.Config{Policy: recovery.DropWithAccounting},
		core.Config{Banks: 1, QueueDepth: 1, WordBytes: 8}, 1,
		client.Config{Policy: recovery.DropWithAccounting})
	tctx := ctx(t)

	const n = 32
	var mu sync.Mutex
	dropped, completed, badErr := 0, 0, 0
	for i := uint64(0); i < n; i++ {
		err := c.Read(tctx, i, func(cm client.Completion) {
			mu.Lock()
			defer mu.Unlock()
			if cm.Err == nil {
				completed++
				return
			}
			dropped++
			if !errors.Is(cm.Err, recovery.ErrDropped) || !errors.Is(cm.Err, core.ErrStall) {
				badErr++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	ctr := c.Counters()
	mu.Lock()
	defer mu.Unlock()
	if dropped+completed != n || badErr != 0 {
		t.Fatalf("dropped=%d completed=%d badErr=%d, want %d resolutions", dropped, completed, badErr, n)
	}
	if dropped == 0 {
		t.Fatal("no drops on a geometry that must stall")
	}
	if ctr.Drops != uint64(dropped) || ctr.Retries != 0 {
		t.Fatalf("counters=%+v, want %d drops and no retries", ctr, dropped)
	}
}

// TestWindowBackpressure: with nobody draining the pipe, the second
// request must block on the window until its context expires.
func TestWindowBackpressure(t *testing.T) {
	cn, sn := net.Pipe()
	defer sn.Close()
	c := client.New(cn, client.Config{Window: 1, ManualBatch: true})
	defer c.Close()

	if err := c.Read(context.Background(), 1, func(client.Completion) {}); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Read(short, 2, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Read returned %v, want DeadlineExceeded", err)
	}
}

// TestConnFailure: a dying connection resolves pending reads with the
// terminal error and fails subsequent calls.
func TestConnFailure(t *testing.T) {
	cn, sn := net.Pipe()
	c := client.New(cn, client.Config{ManualBatch: true})
	defer c.Close()

	got := make(chan error, 1)
	if err := c.Read(context.Background(), 1, func(cm client.Completion) { got <- cm.Err }); err != nil {
		t.Fatal(err)
	}
	sn.Close()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("pending read resolved with nil error on a dead connection")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending read never resolved")
	}
	if err := c.Read(context.Background(), 2, nil); err == nil {
		t.Fatal("Read succeeded on a failed client")
	}
	if err := c.Flush(context.Background()); err == nil {
		t.Fatal("Flush succeeded on a failed client")
	}
}

// TestConcurrentClients runs several clients against one engine at once
// — the race-detector workout for the engine's conn multiplexing.
func TestConcurrentClients(t *testing.T) {
	mem, err := multichannel.New(smallCfg(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	fail := make(chan error, clients)
	for k := 0; k < clients; k++ {
		cn, sn := net.Pipe()
		if err := eng.ServeConn(sn); err != nil {
			t.Fatal(err)
		}
		c := client.New(cn, client.Config{Window: 64})
		defer c.Close()
		wg.Add(1)
		go func(k int, c *client.Client) {
			defer wg.Done()
			tctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			base := uint64(k) << 32 // disjoint address spaces per client
			word := []byte{byte(k), 0, 0, 0, 0, 0, 0, 1}
			for i := uint64(0); i < perClient; i++ {
				if err := c.Write(tctx, base+i, word); err != nil {
					fail <- err
					return
				}
			}
			if err := c.Flush(tctx); err != nil {
				fail <- err
				return
			}
			bad := make(chan struct{}, perClient)
			for i := uint64(0); i < perClient; i++ {
				err := c.Read(tctx, base+i, func(cm client.Completion) {
					if cm.Err != nil || len(cm.Data) == 0 || cm.Data[0] != byte(k) {
						bad <- struct{}{}
					}
				})
				if err != nil {
					fail <- err
					return
				}
			}
			if err := c.Flush(tctx); err != nil {
				fail <- err
				return
			}
			if len(bad) > 0 {
				fail <- errors.New("cross-connection data corruption")
				return
			}
			if ctr := c.Counters(); ctr.Completions != perClient || ctr.LatencyViolations != 0 {
				fail <- errors.New("ledger mismatch")
			}
		}(k, c)
	}
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if s := eng.Snapshot(); s.Completions != clients*perClient || s.Outstanding != 0 {
		t.Fatalf("engine snapshot = %+v", s)
	}
}
