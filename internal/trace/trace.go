// Package trace renders Figure-1 style timelines from the controller
// events a telemetry.EventTrace records: one row per request, showing
// the issue point, the window during which the bank is actually
// accessed, the waiting period that normalizes the latency, and the
// delivery exactly D cycles after issue. The three scenarios of
// Figure 1 — typical operation, short-cut (merged redundant) accesses,
// and a bank overload stall — all become visible in this rendering.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// row is one assembled request lifetime.
type row struct {
	label     string
	issuedAt  uint64
	deliverAt uint64 // 0 until known
	accStart  uint64 // interface-cycle domain; valid if hasAccess
	accEnd    uint64
	hasAccess bool
	isWrite   bool
	stall     bool
}

// NewRing returns an armed event trace sized to keep every controller
// event of a run of the given number of requests. A request raises at
// most four events (accept, bank issue, data ready, delivery), so
// sixteen per request leaves the ring ample headroom.
func NewRing(requests int) *telemetry.EventTrace {
	t := telemetry.NewEventTrace(16 * (requests + 1))
	t.Start(0, 0)
	return t
}

// Timeline assembles recorded controller events (oldest first, as
// telemetry.EventTrace.Snapshot returns them) into per-request rows and
// renders them as ASCII art. ratioNum/ratioDen convert memory cycles to
// interface cycles; scale is how many interface cycles one character
// covers (>= 1). The ring must be sized to keep the whole run: a
// request whose events were overwritten renders incomplete.
//
// Legend: '|' issue, '#' bank access, '.' in the virtual pipeline,
// 'D' delivery, 'w' write issue, 'X' stall.
func Timeline(events []telemetry.Event, ratioNum, ratioDen, scale int) string {
	if scale < 1 {
		scale = 1
	}
	toIface := func(mem uint64) uint64 { return mem * uint64(ratioDen) / uint64(ratioNum) }

	var rows []row
	// pendingAccess queues, per bank and address, the rows awaiting an
	// access span; pendingDeliver maps a read's tag to its row.
	type key struct {
		ch   int16
		bank int32
		addr uint64
	}
	type tagKey struct {
		ch  int16
		tag uint64
	}
	pendingAccess := map[key][]int{}
	pendingDeliver := map[tagKey]int{}
	for _, e := range events {
		k := key{e.Chan, e.Bank, e.Addr}
		switch e.Kind {
		case telemetry.EvRead, telemetry.EvWrite, telemetry.EvMergedRead:
			isWrite, merged := e.Kind == telemetry.EvWrite, e.Kind == telemetry.EvMergedRead
			rw := "read "
			if isWrite {
				rw = "write"
			}
			if merged {
				rw = "read*" // short-cut: served from an existing row
			}
			rows = append(rows, row{
				label:    fmt.Sprintf("%s %#04x @%-4d", rw, e.Addr, e.Cycle),
				issuedAt: e.Cycle,
				isWrite:  isWrite,
			})
			idx := len(rows) - 1
			if !merged {
				pendingAccess[k] = append(pendingAccess[k], idx)
			}
			if !isWrite {
				pendingDeliver[tagKey{e.Chan, e.Tag}] = idx
			}
		case telemetry.EvStall:
			rows = append(rows, row{
				label:    fmt.Sprintf("STALL %#04x @%-4d", e.Addr, e.Cycle),
				issuedAt: e.Cycle,
				stall:    true,
			})
		case telemetry.EvIssueRead, telemetry.EvIssueWrite:
			if q := pendingAccess[k]; len(q) > 0 {
				rows[q[0]].accStart = toIface(e.Cycle)
				rows[q[0]].hasAccess = true
				if rows[q[0]].isWrite {
					// Writes have no data-ready event; close the span now
					// using the bank occupancy implied by the next event
					// stream (rendered as a single-issue marker).
					rows[q[0]].accEnd = rows[q[0]].accStart + 1
					pendingAccess[k] = q[1:]
				}
			}
		case telemetry.EvDataReady:
			if q := pendingAccess[k]; len(q) > 0 {
				rows[q[0]].accEnd = toIface(e.Cycle)
				pendingAccess[k] = q[1:]
			}
		case telemetry.EvDeliver:
			tk := tagKey{e.Chan, e.Tag}
			if idx, ok := pendingDeliver[tk]; ok {
				rows[idx].deliverAt = e.Cycle
				delete(pendingDeliver, tk)
			}
		}
	}
	if len(rows) == 0 {
		return "(no events)\n"
	}

	// Establish the rendered span.
	minC, maxC := rows[0].issuedAt, rows[0].issuedAt
	for _, rw := range rows {
		if rw.issuedAt < minC {
			minC = rw.issuedAt
		}
		for _, c := range []uint64{rw.deliverAt, rw.accEnd} {
			if c > maxC {
				maxC = c
			}
		}
	}
	width := int(maxC-minC)/scale + 2

	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d..%d, one column = %d interface cycle(s)\n", minC, maxC, scale)
	col := func(c uint64) int { return int(c-minC) / scale }
	for _, rw := range rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		set := func(i int, ch byte) {
			if i >= 0 && i < width {
				line[i] = ch
			}
		}
		if rw.stall {
			set(col(rw.issuedAt), 'X')
			fmt.Fprintf(&b, "%-22s %s\n", rw.label, strings.TrimRight(string(line), " "))
			continue
		}
		if rw.deliverAt > 0 {
			for i := col(rw.issuedAt); i <= col(rw.deliverAt); i++ {
				set(i, '.')
			}
		}
		if rw.hasAccess {
			for i := col(rw.accStart); i <= col(rw.accEnd) && rw.accEnd >= rw.accStart; i++ {
				set(i, '#')
			}
		}
		mark := byte('|')
		if rw.isWrite {
			mark = 'w'
		}
		set(col(rw.issuedAt), mark)
		if rw.deliverAt > 0 {
			set(col(rw.deliverAt), 'D')
		}
		fmt.Fprintf(&b, "%-22s %s\n", rw.label, strings.TrimRight(string(line), " "))
	}
	return b.String()
}
