package main

import (
	"fmt"
	"net"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/dram"
	"repro/internal/multichannel"
	"repro/internal/server"
)

// memSeed keys the bank and channel hashes. It is fixed so that only
// the request stream depends on --seed.
const memSeed = 1

// stack is one client → wire → engine → multichannel → controller
// stack, built through the packages' public constructors.
type stack struct {
	w     *workload
	mem   *multichannel.Memory
	eng   *server.Engine
	cl    *client.Client
	cc    *countConn // client-side byte and call counters; nil when untraced
	rec   *recorder
	ln    net.Listener
	serve chan error // Serve's result, TCP only
}

func newMemory(w *workload, fault dram.Hook) (*multichannel.Memory, error) {
	cfg := w.mem
	cfg.Fault = fault
	return multichannel.New(cfg, w.channels, memSeed)
}

func newEngine(w *workload, mem *multichannel.Memory) (*server.Engine, error) {
	return server.New(server.Config{Mem: mem, OOO: w.ooo, Lockstep: w.lockstep})
}

// buildStack constructs the stack for w. fault, when non-nil, is
// installed as every channel's DRAM hook (the negative control).
// traced wraps the client's side of the connection in a countConn.
func buildStack(w *workload, fault dram.Hook, traced bool) (*stack, error) {
	mem, err := newMemory(w, fault)
	if err != nil {
		return nil, err
	}
	// Lockstep never ticks while idle, so a client that blocks on a full
	// window waits for completions only a later frame would produce: the
	// window must cover every read that can be in flight, ports × D.
	if need := mem.Ports() * mem.Delay(); w.lockstep && w.window <= need {
		return nil, fmt.Errorf("%s: window %d must exceed issue rate × D = %d × %d = %d",
			w.name, w.window, mem.Ports(), mem.Delay(), need)
	}
	eng, err := newEngine(w, mem)
	if err != nil {
		return nil, err
	}
	s := &stack{w: w, mem: mem, eng: eng, rec: newRecorder(w.window)}
	nc, err := s.dial()
	if err != nil {
		s.close()
		return nil, err
	}
	if traced {
		s.cc = &countConn{Conn: nc}
		nc = s.cc
	}
	s.cl = client.New(nc, client.Config{Window: w.window, MaxBatch: w.maxBatch, ManualBatch: w.manual})
	return s, nil
}

// dial connects a fresh client-side conn to the engine over the
// workload's transport.
func (s *stack) dial() (net.Conn, error) {
	if !s.w.tcp {
		cn, sn := net.Pipe()
		if err := s.eng.ServeConn(sn); err != nil {
			cn.Close()
			return nil, err
		}
		return cn, nil
	}
	if s.ln == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.ln = ln
		s.serve = make(chan error, 1)
		go func() { s.serve <- s.eng.Serve(ln) }()
	}
	return net.Dial("tcp", s.ln.Addr().String())
}

// close stops the client, the engine and the listener, and waits for
// Serve to return.
func (s *stack) close() error {
	if s.cl != nil {
		s.cl.Close()
	}
	s.eng.Close()
	if s.ln != nil {
		if err := <-s.serve; err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

// countConn counts the calls and bytes crossing the client's side of
// the connection: one Write is one send (a syscall on TCP), one Read
// one receive.
type countConn struct {
	net.Conn
	writes, reads, txBytes, rxBytes atomic.Uint64
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.writes.Add(1)
	c.txBytes.Add(uint64(n))
	return n, err
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.reads.Add(1)
	c.rxBytes.Add(uint64(n))
	return n, err
}

// counts returns tx bytes, rx bytes, writes and reads so far.
func (c *countConn) counts() [4]uint64 {
	return [4]uint64{c.txBytes.Load(), c.rxBytes.Load(), c.writes.Load(), c.reads.Load()}
}
