package server_test

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/wire"
)

func (h *harness) hello(id uint64, tenant string) {
	h.t.Helper()
	if err := h.enc.Hello(wire.Hello{SessionID: id, Tenant: tenant}); err != nil {
		h.t.Fatal(err)
	}
}

// await polls the engine ledger until cond holds or the deadline hits.
func await(t *testing.T, eng *server.Engine, what string, cond func(server.Snapshot) bool) server.Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := eng.Snapshot()
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; ledger %+v", what, s)
		}
		time.Sleep(time.Millisecond)
	}
}

func testRegulator(t *testing.T, limits map[string]qos.Limit) *qos.Regulator {
	t.Helper()
	reg, err := qos.NewRegulator(qos.Config{Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestThrottleSurfaced: under DropWithAccounting, a tenant past its
// token budget sees StatusStall/CodeThrottled — one completion for the
// token the burst held, an immediate throttle verdict for the rest, and
// a ledger where throttles are counted apart from memory stalls.
func TestThrottleSurfaced(t *testing.T) {
	forEachMode(t, func(t *testing.T, ooo bool) {
		mem := testMem(t, smallCfg(), 2)
		reg := testRegulator(t, map[string]qos.Limit{"attacker": {Rate: 0.25, Burst: 1}})
		eng, err := server.New(server.Config{Mem: mem, OOO: ooo, QoS: reg, Policy: recovery.DropWithAccounting})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		h := newHarness(t, eng)
		h.hello(0, "attacker")

		const n = 8
		reqs := make([]wire.Request, 0, n)
		for i := uint64(0); i < n; i++ {
			reqs = append(reqs, wire.Request{Op: wire.OpRead, Seq: i, Addr: i * 64})
		}
		h.send(reqs...)
		h.send(wire.Request{Op: wire.OpFlush, Seq: 100})
		h.awaitReply(100)

		// The batch lands in one frame, so the first issue sweep sees all 8:
		// seq 0 takes the only token, seqs 1..7 are throttled that cycle.
		if comp := h.awaitComp(0); comp.DeliveredAt-comp.IssuedAt != uint64(mem.Delay()) {
			t.Fatalf("granted read broke fixed-D: %+v", comp)
		}
		for i := uint64(1); i < n; i++ {
			r := h.awaitReply(i)
			if r.Status != wire.StatusStall || r.Code != wire.CodeThrottled {
				t.Fatalf("reply %d = %+v, want StatusStall/CodeThrottled", i, r)
			}
		}
		s := eng.Snapshot()
		if s.Reads != 1 || s.Completions != 1 || s.Throttled != n-1 || s.Stalls != 0 {
			t.Fatalf("ledger %+v, want 1 read, 1 completion, %d throttled, 0 memory stalls", s, n-1)
		}
		tc := reg.Tenant("attacker").Counters()
		if tc.Issued != 1 || tc.Throttled != n-1 {
			t.Fatalf("tenant ledger %+v, want issued=1 throttled=%d", tc, n-1)
		}
	})
}

// TestThrottleHeldThenServed: under the default hold policy a throttled
// head waits for the bucket to refill — every request completes, fixed-D
// intact, with the tenant charged one refusal per held cycle and one
// token per request.
func TestThrottleHeldThenServed(t *testing.T) {
	forEachMode(t, func(t *testing.T, ooo bool) {
		mem := testMem(t, smallCfg(), 2)
		reg := testRegulator(t, map[string]qos.Limit{"steady": {Rate: 0.5, Burst: 1}})
		eng, err := server.New(server.Config{Mem: mem, OOO: ooo, QoS: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		h := newHarness(t, eng)
		h.hello(0, "steady")

		const n = 16
		reqs := make([]wire.Request, 0, n)
		for i := uint64(0); i < n; i++ {
			reqs = append(reqs, wire.Request{Op: wire.OpRead, Seq: i, Addr: i * 64})
		}
		h.send(reqs...)
		h.send(wire.Request{Op: wire.OpFlush, Seq: 100})
		h.awaitReply(100)
		for i := uint64(0); i < n; i++ {
			comp := h.awaitComp(i)
			if comp.DeliveredAt-comp.IssuedAt != uint64(mem.Delay()) {
				t.Fatalf("read %d broke fixed-D: %+v", i, comp)
			}
		}
		s := eng.Snapshot()
		if s.Reads != n || s.Completions != n || s.Dropped != 0 {
			t.Fatalf("ledger %+v, want all %d reads completed", s, n)
		}
		if s.Throttled == 0 {
			t.Fatal("a rate-1/2 tenant burst-issuing 16 reads was never throttled")
		}
		tc := reg.Tenant("steady").Counters()
		if tc.Issued != n {
			t.Fatalf("tenant issued %d, want %d (one token per request, stall holds not re-charged)", tc.Issued, n)
		}
		if tc.Throttled != s.Throttled {
			t.Fatalf("tenant throttled %d, engine throttled %d — the two ledgers must agree", tc.Throttled, s.Throttled)
		}
	})
}

// TestTenantIsolation: an unlimited victim shares the engine with a
// hard-limited attacker. The attacker's budget caps its executed reads;
// the victim completes everything, fixed-D intact.
func TestTenantIsolation(t *testing.T) {
	forEachMode(t, func(t *testing.T, ooo bool) {
		mem := testMem(t, smallCfg(), 2)
		reg := testRegulator(t, map[string]qos.Limit{"attacker": {Rate: 0.1, Burst: 2}})
		eng, err := server.New(server.Config{Mem: mem, OOO: ooo, QoS: reg, Policy: recovery.DropWithAccounting})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()

		atk := newHarness(t, eng)
		atk.hello(0, "attacker")
		vic := newHarness(t, eng)
		vic.hello(0, "victim")

		const n = 64
		var atkReqs, vicReqs []wire.Request
		for i := uint64(0); i < n; i++ {
			atkReqs = append(atkReqs, wire.Request{Op: wire.OpRead, Seq: i, Addr: i * 64})
			vicReqs = append(vicReqs, wire.Request{Op: wire.OpRead, Seq: i, Addr: (n + i) * 64})
		}
		atk.send(atkReqs...)
		vic.send(vicReqs...)
		atk.send(wire.Request{Op: wire.OpFlush, Seq: 1000})
		vic.send(wire.Request{Op: wire.OpFlush, Seq: 1000})

		vicDone := make(chan struct{})
		go func() {
			defer close(vicDone)
			for i := uint64(0); i < n; i++ {
				comp := vic.awaitComp(i)
				if comp.DeliveredAt-comp.IssuedAt != uint64(mem.Delay()) {
					vic.t.Errorf("victim read %d broke fixed-D: %+v", i, comp)
					return
				}
			}
			vic.awaitReply(1000)
		}()
		atkDone := 0
		for i := uint64(0); i < n; i++ {
			for {
				if _, ok := atk.replies[i]; ok {
					break
				}
				if _, ok := atk.comps[i]; ok {
					atkDone++
					break
				}
				atk.recvOne()
			}
		}
		atk.awaitReply(1000)
		<-vicDone

		s := eng.Snapshot()
		vc := reg.Tenant("victim").Counters()
		ac := reg.Tenant("attacker").Counters()
		if vc.Issued != n || vc.Throttled != 0 {
			t.Fatalf("victim ledger %+v, want all %d issued, none throttled", vc, n)
		}
		// The attacker cannot execute more than its provisioned budget:
		// burst + rate tokens per elapsed cycle (+1 for refill rounding).
		cap := uint64(float64(s.Cycle)*0.1) + 2 + 1
		if uint64(atkDone) != ac.Issued || ac.Issued > cap {
			t.Fatalf("attacker executed %d (tenant issued %d) over %d cycles, budget caps it at %d",
				atkDone, ac.Issued, s.Cycle, cap)
		}
		if ac.Throttled == 0 || s.Throttled != ac.Throttled+vc.Throttled {
			t.Fatalf("throttle ledgers disagree: engine %d, attacker %d, victim %d", s.Throttled, ac.Throttled, vc.Throttled)
		}
	})
}

// TestSessionResume: a session named in a Hello survives its transport.
// The first conn dies before reading anything; a second conn with the
// same SessionID receives every parked verdict, and replayed requests
// are answered from the replay cache without re-executing.
func TestSessionResume(t *testing.T) {
	forEachMode(t, func(t *testing.T, ooo bool) {
		mem := testMem(t, smallCfg(), 2)
		eng, err := server.New(server.Config{Mem: mem, OOO: ooo})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()

		word := []byte{9, 8, 7, 6, 5, 4, 3, 2}
		h1 := newHarness(t, eng)
		h1.hello(77, "tenant-a")
		h1.send(
			wire.Request{Op: wire.OpWrite, Seq: 1, Addr: 0xbeef, Data: word},
			wire.Request{Op: wire.OpRead, Seq: 2, Addr: 0xbeef},
			wire.Request{Op: wire.OpFlush, Seq: 3},
		)
		// Wait for the engine to resolve everything, then kill the transport
		// without reading a byte: all three verdicts are parked output.
		await(t, eng, "flush resolved", func(s server.Snapshot) bool { return s.Flushes == 1 })
		h1.nc.Close()
		await(t, eng, "conn detached", func(s server.Snapshot) bool { return s.Conns == 0 })
		if s := eng.Snapshot(); s.Sessions != 1 {
			t.Fatalf("resumable session vanished with its conn: %+v", s)
		}

		// Reconnect as the same session: the parked verdicts flush in order,
		// and replaying both requests (the client cannot know they resolved)
		// re-emits the cached verdicts without touching the memory.
		h2 := newHarness(t, eng)
		h2.hello(77, "tenant-a")
		if r := h2.awaitReply(1); r.Status != wire.StatusAccepted {
			t.Fatalf("parked write accept = %+v", r)
		}
		comp := h2.awaitComp(2)
		if string(comp.Data) != string(word) {
			t.Fatalf("parked completion data %x, want %x", comp.Data, word)
		}
		if r := h2.awaitReply(3); r.Status != wire.StatusFlushed {
			t.Fatalf("parked flush reply = %+v", r)
		}

		h2.replies = map[uint64]wire.Reply{}
		h2.comps = map[uint64]wire.Completion{}
		h2.send(
			wire.Request{Op: wire.OpWrite, Seq: 1, Addr: 0xbeef, Data: word},
			wire.Request{Op: wire.OpRead, Seq: 2, Addr: 0xbeef},
		)
		if r := h2.awaitReply(1); r.Status != wire.StatusAccepted {
			t.Fatalf("replayed write accept = %+v", r)
		}
		replayed := h2.awaitComp(2)
		if string(replayed.Data) != string(word) || replayed.IssuedAt != comp.IssuedAt || replayed.DeliveredAt != comp.DeliveredAt {
			t.Fatalf("replayed completion %+v, want cached copy of %+v", replayed, comp)
		}
		s := eng.Snapshot()
		if s.Reads != 1 || s.Writes != 1 || s.Completions != 1 {
			t.Fatalf("replays re-executed: %+v, want 1 read / 1 write / 1 completion", s)
		}
		if s.ReplaysServed != 2 {
			t.Fatalf("replay cache served %d, want 2", s.ReplaysServed)
		}
	})
}

// TestWriteTimeoutParksOutput: a peer that stops reading trips the
// per-frame write deadline; the conn detaches but the session keeps the
// undelivered completion for the next transport.
func TestWriteTimeoutParksOutput(t *testing.T) {
	mem := testMem(t, smallCfg(), 2)
	eng, err := server.New(server.Config{Mem: mem, WriteTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	cli, srv := net.Pipe()
	defer cli.Close()
	if err := eng.ServeConn(srv); err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder(cli)
	if err := enc.Hello(wire.Hello{SessionID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Requests(0, []wire.Request{{Op: wire.OpRead, Seq: 1, Addr: 64}}); err != nil {
		t.Fatal(err)
	}
	// Never read: the server's writer wedges on the pipe until the
	// deadline detaches it. The completion must survive the detach.
	await(t, eng, "write deadline detach", func(s server.Snapshot) bool {
		return s.Conns == 0 && s.Completions == 1
	})

	h := newHarness(t, eng)
	h.hello(5, "")
	if comp := h.awaitComp(1); comp.DeliveredAt-comp.IssuedAt != uint64(mem.Delay()) {
		t.Fatalf("resumed completion %+v broke fixed-D", comp)
	}
}

// TestDrain: draining refuses new reads and writes with CodeDraining,
// keeps flush and stats alive, finishes in-flight work, flips /healthz
// to 503, and Drain returns a settled ledger.
func TestDrain(t *testing.T) {
	forEachMode(t, func(t *testing.T, ooo bool) {
		mem := testMem(t, smallCfg(), 2)
		eng, err := server.New(server.Config{Mem: mem, OOO: ooo})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		h := newHarness(t, eng)

		if rec := httptest.NewRecorder(); true {
			eng.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != 200 {
				t.Fatalf("healthz before drain = %d, want 200", rec.Code)
			}
		}

		word := []byte{1, 1, 2, 3, 5, 8, 13, 21}
		h.send(
			wire.Request{Op: wire.OpWrite, Seq: 1, Addr: 64, Data: word},
			wire.Request{Op: wire.OpRead, Seq: 2, Addr: 64},
		)
		h.awaitComp(2)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		final, err := eng.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if final.Outstanding != 0 || final.Reads != 1 || final.Writes != 1 || final.Completions != 1 || !final.Draining {
			t.Fatalf("drain ledger %+v, want settled pipeline", final)
		}
		if !eng.Draining() {
			t.Fatal("engine not reporting drain mode")
		}

		rec := httptest.NewRecorder()
		eng.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != 503 {
			t.Fatalf("healthz during drain = %d, want 503", rec.Code)
		}

		// New work is refused with the terminal draining code; flush and
		// stats still answer so clients can settle their ledgers.
		h.send(
			wire.Request{Op: wire.OpRead, Seq: 10, Addr: 64},
			wire.Request{Op: wire.OpWrite, Seq: 11, Addr: 128, Data: word},
			wire.Request{Op: wire.OpFlush, Seq: 12},
			wire.Request{Op: wire.OpStats, Seq: 13},
		)
		for _, seq := range []uint64{10, 11} {
			r := h.awaitReply(seq)
			if r.Status != wire.StatusDropped || r.Code != wire.CodeDraining {
				t.Fatalf("reply %d during drain = %+v, want StatusDropped/CodeDraining", seq, r)
			}
		}
		if r := h.awaitReply(12); r.Status != wire.StatusFlushed {
			t.Fatalf("flush during drain = %+v", r)
		}
		if st := h.awaitStats(13); st.Reads != 1 {
			t.Fatalf("stats during drain = %+v", st)
		}
		if s := eng.Snapshot(); s.DrainRefused != 2 {
			t.Fatalf("drain refused %d, want 2", s.DrainRefused)
		}

		// A second Drain observes the same completed drain immediately, and
		// new connections are turned away.
		if _, err := eng.Drain(ctx); err != nil {
			t.Fatalf("second drain: %v", err)
		}
		cn, sn := net.Pipe()
		defer cn.Close()
		if err := eng.ServeConn(sn); err == nil {
			t.Fatal("ServeConn accepted a connection during drain")
		}
	})
}
