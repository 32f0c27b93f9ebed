package core

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/queue"
)

// playback is a circular-delay-buffer payload: everything needed to put
// the right data word on the interface at the right time. The hardware
// stores only the row id (log2 K bits per slot); the tag, address and
// issue cycle ride along in the model so completions are self-describing.
// A parity-decode playback reuses rowID as its decode row's index in
// the codedState freelist.
type playback struct {
	tag      uint64
	addr     uint64
	issuedAt uint64
	rowID    int32
}

// baqEntry is one bank access queue entry: a read/write bit plus, for
// reads, the index of the target row in the delay storage buffer. The
// row id is unused for writes, which drain the write buffer in FIFO
// order.
type baqEntry struct {
	isWrite bool
	rowID   int
}

// wbEntry is one write buffer entry: the address and data of an
// incoming write awaiting its bank access.
type wbEntry struct {
	addr uint64
	data []byte
}

// dsbRow is one row of the delay storage buffer: an address with a
// valid flag, the redundant-request counter, and a data word buffered
// from the bank until every pending playback has consumed it.
type dsbRow struct {
	allocated bool // row is reserved (counter has pending playbacks)
	addrValid bool // address may match new reads (cleared by a write)
	addr      uint64
	count     uint32 // pending playbacks referencing this row
	dataReady bool   // the bank access has completed
	corrupt   bool   // the fill failed ECC; every playback is poisoned
	data      []byte
}

// inflightAccess tracks the single read access a bank can have
// outstanding: issued to the DRAM, completing at doneAt.
type inflightAccess struct {
	active bool
	rowID  int
	doneAt uint64
}

// bankController implements Figure 3 of the paper: one controller per
// bank, owning a delay storage buffer (K rows), a bank access queue
// (Q entries), a write buffer FIFO (Q/2 entries) and the control logic
// tying them together. Requests pass through the four states pending
// (queued), accessing (issued to the bank), waiting (data buffered until
// D elapses) and completed.
//
// The circular delay buffer of Section 4.1 is not stored per bank: at
// most one read is accepted per interface cycle across the whole
// controller, so the union of all banks' delay buffers holds at most one
// valid slot per delivery cycle, and the controller models them together
// as one due-ordered playback queue (Controller.due). Every state change
// that affects the controller's active-bank sets or occupancy totals is
// reported through the owner back-pointer, which is what lets Tick visit
// only banks with work.
type bankController struct {
	id       int
	owner    *Controller
	rows     []dsbRow
	freeRows int
	// cam indexes the CAM: addr → row for every allocated, address-valid
	// row (at most one per address). freeMask is the "first zero circuit"
	// as a bitmask, one set bit per free row. Both are pure accelerators
	// over rows — the row flags stay authoritative — sized once at
	// construction so steady state never allocates.
	cam      camTable
	freeMask []uint64
	baq      *queue.Ring[baqEntry]
	wb       *queue.Ring[wbEntry]

	inflight inflightAccess

	trace Tracer // nil unless Config.Trace is set
}

func newBankController(id int, cfg Config, owner *Controller) *bankController {
	b := &bankController{
		id:       id,
		owner:    owner,
		rows:     make([]dsbRow, cfg.DelayRows),
		freeRows: cfg.DelayRows,
		cam:      newCAMTable(cfg.DelayRows),
		freeMask: make([]uint64, (cfg.DelayRows+63)/64),
		baq:      queue.NewRing[baqEntry](cfg.QueueDepth),
		wb:       queue.NewRing[wbEntry](cfg.WriteBufferDepth),
		trace:    cfg.Trace,
	}
	// One arena backs every row's data word.
	w := cfg.WordBytes
	arena := make([]byte, cfg.DelayRows*w)
	for i := range b.rows {
		b.rows[i].data = arena[i*w : (i+1)*w : (i+1)*w]
		b.freeMask[i>>6] |= 1 << (uint(i) & 63)
	}
	return b
}

// camTable is the address CAM as a flat open-addressed hash table:
// linear probing from a multiplicative hash of the address, with
// backward-shift deletion so no tombstones ever accumulate. It holds at
// most one entry per delay storage buffer row in at least twice as many
// slots, so a probe run stays short and the table never fills; nothing
// is allocated after construction.
type camTable struct {
	slots []camSlot
	shift uint // 64 - log2(len(slots)): keeps the hash's high bits
}

// camSlot is one table slot. row holds the row index plus one, so the
// zero slot is empty.
type camSlot struct {
	addr uint64
	row  int32
}

func newCAMTable(rows int) camTable {
	n := 4
	for n < 2*rows {
		n <<= 1
	}
	return camTable{slots: make([]camSlot, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
}

// home is addr's preferred slot (Fibonacci hashing).
func (t *camTable) home(addr uint64) int {
	return int((addr * 0x9e3779b97f4a7c15) >> t.shift)
}

// get returns the row mapped to addr, or -1.
func (t *camTable) get(addr uint64) int {
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.row == 0 {
			return -1
		}
		if s.addr == addr {
			return int(s.row - 1)
		}
	}
}

// put maps addr to row, replacing any existing mapping. The caller
// keeps the live entries below len(slots).
func (t *camTable) put(addr uint64, row int) {
	mask := len(t.slots) - 1
	i := t.home(addr)
	for t.slots[i].row != 0 && t.slots[i].addr != addr {
		i = (i + 1) & mask
	}
	t.slots[i] = camSlot{addr: addr, row: int32(row + 1)}
}

// delete removes addr's mapping, if any. Later members of the probe run
// shift back into the hole unless that would move one before its home
// slot, which keeps every remaining key reachable without tombstones.
func (t *camTable) delete(addr uint64) {
	mask := len(t.slots) - 1
	i := t.home(addr)
	for {
		s := &t.slots[i]
		if s.row == 0 {
			return
		}
		if s.addr == addr {
			break
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].row != 0; j = (j + 1) & mask {
		// The entry at j may fill hole i only if i lies on its probe
		// path, i.e. no further from j than its home slot is.
		if (j-t.home(t.slots[j].addr))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = camSlot{}
}

// lookup is the address CAM search: the index of the allocated,
// address-valid row holding addr, or -1. At most one row can be valid
// for a given address (new rows are only allocated on a CAM miss, and a
// write invalidates the matching row before any new row can appear).
func (b *bankController) lookup(addr uint64) int { return b.cam.get(addr) }

// allocRow is the "first zero circuit": it reserves the lowest-indexed
// free row for addr. The caller must have checked freeRows > 0.
func (b *bankController) allocRow(addr uint64) int {
	for w, m := range b.freeMask {
		if m == 0 {
			continue
		}
		i := w<<6 | bits.TrailingZeros64(m)
		b.freeMask[w] = m & (m - 1)
		r := &b.rows[i]
		r.allocated = true
		r.addrValid = true
		r.addr = addr
		r.count = 1
		r.dataReady = false
		r.corrupt = false
		b.cam.put(addr, i)
		b.freeRows--
		b.owner.noteRowAlloc(b.id)
		return i
	}
	panic("core: allocRow called with no free rows")
}

func (b *bankController) freeRow(rowID int) {
	r := &b.rows[rowID]
	if r.addrValid {
		b.cam.delete(r.addr)
	}
	r.allocated = false
	r.addrValid = false
	r.count = 0
	r.dataReady = false
	r.corrupt = false
	b.freeMask[rowID>>6] |= 1 << (uint(rowID) & 63)
	b.freeRows++
	b.owner.noteRowFree(b.id)
}

// acceptRead handles an incoming read request. On a CAM match the
// request is redundant: the row counter is incremented and only a
// playback entry is needed (the short-cut path of Figure 1). On a miss
// a row and a bank access queue entry are needed; if either resource is
// exhausted the request stalls. The returned row id is what the
// controller schedules into the due queue.
func (b *bankController) acceptRead(addr uint64, maxCount uint32) (rowID int, merged bool, err error) {
	if rowID := b.lookup(addr); rowID >= 0 {
		r := &b.rows[rowID]
		if r.count >= maxCount {
			return 0, false, ErrStallCounter
		}
		r.count++
		return rowID, true, nil
	}
	if b.freeRows == 0 {
		return 0, false, ErrStallDelayBuffer
	}
	if b.baq.Full() {
		return 0, false, ErrStallBankQueue
	}
	rowID = b.allocRow(addr)
	b.baq.Push(baqEntry{isWrite: false, rowID: rowID})
	b.owner.noteQueuePush(b.id)
	return rowID, false, nil
}

// acceptWrite handles an incoming write request: the address and data
// enter the write buffer FIFO, a write marker enters the bank access
// queue, and any row caching the overwritten address has its address
// valid flag cleared so future reads refetch from the bank (the row
// keeps serving the reads that preceded the write until its counter
// drains to zero).
func (b *bankController) acceptWrite(addr uint64, data []byte) error {
	if b.wb.Full() {
		return ErrStallWriteBuffer
	}
	if b.baq.Full() {
		return ErrStallBankQueue
	}
	if rowID := b.lookup(addr); rowID >= 0 {
		b.rows[rowID].addrValid = false
		b.cam.delete(addr)
	}
	b.wb.Push(wbEntry{addr: addr, data: data})
	b.baq.Push(baqEntry{isWrite: true})
	b.owner.noteQueuePush(b.id)
	b.owner.noteWBPush(b.id)
	return nil
}

// flushInflight completes an outstanding read access whose bank time
// has elapsed, marking the row's data ready for playback.
func (b *bankController) flushInflight(memNow uint64) {
	if b.inflight.active && memNow >= b.inflight.doneAt {
		b.rows[b.inflight.rowID].dataReady = true
		b.inflight.active = false
		b.owner.inflight--
		if b.trace != nil {
			b.trace.OnDataReady(b.inflight.doneAt, b.id, b.rows[b.inflight.rowID].addr)
		}
	}
}

// tryIssue attempts to start the head-of-queue access on memory cycle
// memNow. It returns true if the bus slot was consumed. Write data
// buffers are returned to pool once the store has taken the word.
func (b *bankController) tryIssue(mod *dram.Module, memNow uint64, pool *bufPool) bool {
	if b.baq.Empty() {
		return false
	}
	b.flushInflight(memNow)
	if !mod.BankFree(b.id, memNow) {
		return false
	}
	head, _ := b.baq.Pop()
	b.owner.noteQueuePop(b.id)
	if head.isWrite {
		e, ok := b.wb.Pop()
		if !ok {
			panic("core: write marker in bank access queue with empty write buffer")
		}
		b.owner.noteWBPop(b.id)
		mod.IssueWrite(b.id, e.addr, e.data, memNow)
		pool.put(e.data)
		if b.trace != nil {
			b.trace.OnIssue(memNow, b.id, true, e.addr)
		}
		return true
	}
	row := &b.rows[head.rowID]
	doneAt, data, status := mod.IssueRead(b.id, row.addr, memNow)
	if b.trace != nil {
		b.trace.OnIssue(memNow, b.id, false, row.addr)
	}
	// The word cannot change between issue and completion (the bank is
	// busy, and same-address writes always land on this same bank), so
	// the model copies it now and reveals it at doneAt.
	copy(row.data, data)
	row.corrupt = status == dram.ReadUncorrectable
	b.inflight = inflightAccess{active: true, rowID: head.rowID, doneAt: doneAt}
	b.owner.noteIssueRead(b.id, doneAt)
	return true
}

// deliver consumes one playback: it reads the data word from the row,
// decrements the redundant-request counter, and frees the row when the
// last pending playback has been served. It reports whether the row's
// fill failed ECC, in which case every playback it serves is poisoned.
// The data must be ready — the normalized delay D is chosen so that any
// request admitted without a stall completes in time, and a violation
// here means that invariant (not the workload) is broken. Tick has
// already flushed every access finished by the current memory cycle.
func (b *bankController) deliver(p *playback, dst []byte) (corrupt bool) {
	r := &b.rows[p.rowID]
	if !r.allocated || r.count == 0 {
		panic(fmt.Sprintf("core: playback for bank %d row %d which is not reserved", b.id, p.rowID))
	}
	if !r.dataReady {
		panic(fmt.Sprintf("core: playback for bank %d row %d before data ready (normalized delay too small)", b.id, p.rowID))
	}
	copy(dst, r.data)
	corrupt = r.corrupt
	r.count--
	if r.count == 0 {
		b.freeRow(int(p.rowID))
	}
	return corrupt
}

// rowsInUse reports the current delay storage buffer occupancy.
func (b *bankController) rowsInUse() int { return len(b.rows) - b.freeRows }
