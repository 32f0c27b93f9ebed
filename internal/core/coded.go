package core

// This file is the controller half of the XOR-parity bank-group design
// (package coded holds the geometry, parity/shadow state and per-cycle
// port ledger). It adds a multi-port arbitration path to the interface:
// each cycle up to Coded.K reads are granted, each covered in one of
// three ways, tried in this order per request:
//
//  1. merge  — the address CAM hits a live delay storage buffer row;
//     the playback rides the existing fill and costs no read port.
//  2. direct — the home bank's read port is free; the read takes the
//     ordinary bank-controller path (queue, DRAM access, DSB row).
//  3. decode — the home bank's port is busy (or its resources are
//     exhausted), but the group's parity port and all n-1 sibling bank
//     ports are free; the word is reconstructed as parity XOR siblings
//     at accept time and held in a preallocated decode row until its
//     delivery slot D cycles later.
//
// The decode word comes from the write-through shadow, which records
// the memory contents as of write admission. That is exactly what the
// uncoded path delivers — a read accepted on cycle t returns the value
// after every write accepted before it (the CAM's addrValid
// invalidation plus per-bank FIFO ordering guarantee it) — so the two
// paths are bit-identical, which the coded differential subtests and
// FuzzParityReconstruct pin. The one modelled difference: a decode
// bypasses the bank machinery and with it the fault/ECC hook, so
// parity-decoded completions never carry ErrUncorrectable.

import "repro/internal/coded"

// codedState bundles the controller's coded-mode state: geometry
// shortcuts for the stripe/lane address split, the parity+shadow banks,
// the per-cycle port ledger, and the decode rows with a freelist of
// their indices, sized so the steady state never allocates (at most K
// decodes per cycle, each held D cycles). Due entries name a decode row
// by its index.
type codedState struct {
	geo       coded.Geometry
	laneBits  uint
	laneMask  uint64
	groupMask uint64
	banks     *coded.Banks
	ports     *coded.Ports
	rows      [][]byte
	freeRows  []int32
}

func newCodedState(cfg Config) *codedState {
	geo := cfg.Coded
	st := &codedState{
		geo:       geo,
		laneBits:  geo.LaneBits(),
		laneMask:  uint64(geo.Group - 1),
		groupMask: uint64(geo.Groups(cfg.Banks) - 1),
		banks:     coded.NewBanks(geo, cfg.WordBytes),
		ports:     coded.NewPorts(geo, cfg.Banks),
	}
	n, w := geo.ReadPorts()*cfg.Delay, cfg.WordBytes
	arena := make([]byte, n*w)
	st.rows = make([][]byte, n)
	st.freeRows = make([]int32, n)
	for i := range st.rows {
		st.rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
		st.freeRows[i] = int32(i)
	}
	return st
}

// allocRow takes a decode row from the freelist. The list cannot be
// empty: at most ReadPorts decodes are granted per cycle and each row
// is returned when its playback delivers D cycles later.
func (st *codedState) allocRow() int32 {
	n := len(st.freeRows)
	if n == 0 {
		panic("core: decode row freelist exhausted")
	}
	row := st.freeRows[n-1]
	st.freeRows = st.freeRows[:n-1]
	return row
}

// freeRow returns a delivered decode row to the freelist.
func (st *codedState) freeRow(row int32) {
	st.freeRows = append(st.freeRows, row)
}

// noteWrite folds an accepted write into the shadow and parity state
// and charges the ports the write-through traffic occupies this cycle:
// the home bank's port (the data write) and the group's parity port
// (the parity read-modify-write). Writes are buffered, so the claims
// are unchecked — they never stall the write itself — but they do deny
// same-cycle reads those ports, which is the modelled cost of parity
// maintenance.
func (st *codedState) noteWrite(bank int, addr uint64, data []byte) {
	st.ports.UseBank(bank)
	st.ports.UseParity(bank)
	st.banks.NoteWrite(addr, data)
}

// readCoded is Read's coded-mode tail: the admission-cap and dual-port
// guards have passed, so grant the read by merge, direct port or parity
// decode — or stall. Call order is the arbitration order, matching the
// one-request-at-a-time hardware interface.
func (c *Controller) readCoded(addr uint64) (tag uint64, err error) {
	st := c.coded
	bank := c.Bank(addr)
	b := c.banks[bank]
	tag = c.nextTag

	// Merge: a CAM hit replays an already-reserved row and needs no
	// port. A hit with a saturated counter may still fall back to a
	// decode — the decode serves the same admission-time value.
	camRow := b.lookup(addr)
	if camRow >= 0 && b.rows[camRow].count < c.maxCount {
		rowID, _, aerr := b.acceptRead(addr, c.maxCount)
		if aerr != nil {
			panic("core: coded merge pre-check disagreed with acceptRead")
		}
		c.grantCoded(bank, grantMerge, rowID, addr)
		c.stats.MergedReads++
		return tag, nil
	}

	// Direct: the ordinary bank path, if its port is free this cycle.
	// Resource exhaustion (rows, queue, counter) falls through to the
	// decode attempt; only if that also fails is the resource cause
	// reported, so a coded controller stalls strictly less often.
	var directErr error
	if camRow >= 0 {
		directErr = ErrStallCounter
	} else if st.ports.BankFree(bank) {
		rowID, _, aerr := b.acceptRead(addr, c.maxCount)
		if aerr == nil {
			st.ports.UseBank(bank)
			c.grantCoded(bank, grantDirect, rowID, addr)
			c.notePressure(b)
			return tag, nil
		}
		directErr = aerr
	}

	// Decode: reconstruct from parity + siblings if the cover is free.
	if st.ports.DecodeFree(bank) {
		st.ports.UseDecode(bank)
		row := st.allocRow()
		st.banks.Reconstruct(addr, st.rows[row])
		c.grantCoded(bank, grantDecode, int(row), addr)
		return tag, nil
	}

	// Nothing covers the read. Report the direct path's resource cause
	// if it had one (those stalls persist until the resource drains);
	// otherwise it is purely a port-cover miss, which self-clears when
	// the ports reset next cycle.
	if directErr == nil {
		directErr = ErrStallCodedPort
	}
	c.noteStall(directErr)
	if c.cfg.Trace != nil {
		c.cfg.Trace.OnStall(c.cycle, bank, addr, directErr)
	}
	return 0, directErr
}

// grantKind labels how a coded read was covered.
type grantKind int

const (
	grantMerge grantKind = iota
	grantDirect
	grantDecode
)

// grantCoded finishes an accepted coded read: schedules the playback,
// emits the trace event, and updates the shared admission ledger. row
// is a decode row index for grantDecode (the parity-reconstruction
// delivery path) and a DSB row id for merge/direct playbacks.
func (c *Controller) grantCoded(bank int, kind grantKind, row int, addr uint64) {
	tag := c.nextTag
	if c.cfg.Trace != nil {
		c.cfg.Trace.OnRequest(c.cycle, bank, false, kind == grantMerge, addr, tag)
	}
	*c.pushDue() = dueEntry{
		p:     playback{tag: tag, addr: addr, issuedAt: c.cycle, rowID: int32(row)},
		bank:  int32(bank),
		coded: kind == grantDecode,
	}
	c.nextTag++
	c.readsThisCycle++
	c.stats.Reads++
	c.stats.BankRequests[bank]++
}
