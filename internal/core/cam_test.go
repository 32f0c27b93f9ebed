package core

import (
	"strconv"
	"testing"
)

// camOp is one step of a CAM differential run.
type camOp struct {
	kind byte // 'p' put, 'g' get, 'd' delete
	addr uint64
	row  int
}

// checkCAM compares every key the reference holds, plus the op's key,
// against the table, and checks that the table holds nothing else.
func checkCAM(t *testing.T, where string, tab *camTable, ref map[uint64]int, probe uint64) {
	t.Helper()
	want, ok := ref[probe]
	if !ok {
		want = -1
	}
	if got := tab.get(probe); got != want {
		t.Fatalf("%s: get(%#x) = %d, reference %d", where, probe, got, want)
	}
	for a, r := range ref {
		if got := tab.get(a); got != r {
			t.Fatalf("%s: get(%#x) = %d, reference %d", where, a, got, r)
		}
	}
	live := 0
	for _, s := range tab.slots {
		if s.row != 0 {
			live++
		}
	}
	if live != len(ref) {
		t.Fatalf("%s: table holds %d entries, reference %d", where, live, len(ref))
	}
}

// runCAM applies ops to a table sized for rows and to a map reference,
// comparing the two after every op.
func runCAM(t *testing.T, rows int, ops []camOp) {
	t.Helper()
	tab := newCAMTable(rows)
	ref := make(map[uint64]int)
	for i, op := range ops {
		switch op.kind {
		case 'p':
			tab.put(op.addr, op.row)
			ref[op.addr] = op.row
		case 'd':
			tab.delete(op.addr)
			delete(ref, op.addr)
		}
		checkCAM(t, "op "+strconv.Itoa(i)+" "+string(op.kind), &tab, ref, op.addr)
	}
}

// keysHomedAt returns n distinct addresses whose home slot is slot.
func keysHomedAt(tab *camTable, slot, n int) []uint64 {
	var keys []uint64
	for a := uint64(1); len(keys) < n; a++ {
		if tab.home(a) == slot {
			keys = append(keys, a)
		}
	}
	return keys
}

// TestCAMTableMatchesMap is the CAM table's differential test against a
// Go map: collisions, probe runs wrapping the table end, backward-shift
// deletion from the middle of a run, deleting absent keys, and a full
// delay storage buffer's worth of live entries.
func TestCAMTableMatchesMap(t *testing.T) {
	const rows = 8
	shape := newCAMTable(rows)
	last := len(shape.slots) - 1
	col := keysHomedAt(&shape, 3, 4)     // four keys sharing home slot 3
	next := keysHomedAt(&shape, 4, 2)    // keys homed just after the run
	wrap := keysHomedAt(&shape, last, 3) // keys homed at the last slot
	zero := keysHomedAt(&shape, 0, 2)    // keys homed at slot 0, behind the wrap

	full := make([]camOp, 0, 4*rows)
	for i := 0; i < rows; i++ {
		full = append(full, camOp{'p', uint64(i)*0x1000 + 7, i})
	}
	for i := 0; i < rows; i += 2 {
		full = append(full, camOp{'d', uint64(i)*0x1000 + 7, 0})
	}
	for i := 0; i < rows; i += 2 {
		full = append(full, camOp{'p', uint64(i)*0x1000 + 9, i})
	}

	cases := []struct {
		name string
		ops  []camOp
	}{
		{"colliding-keys", []camOp{
			{'p', col[0], 0}, {'p', col[1], 1}, {'p', col[2], 2}, {'p', col[3], 3},
			{'g', col[3], 0}, {'p', col[2], 5},
		}},
		{"delete-mid-run-shifts-back", []camOp{
			{'p', col[0], 0}, {'p', col[1], 1}, {'p', next[0], 2}, {'p', col[2], 3},
			{'d', col[1], 0}, {'g', col[2], 0}, {'g', next[0], 0},
			{'d', col[0], 0}, {'p', next[1], 4}, {'d', next[0], 0},
		}},
		{"delete-run-head", []camOp{
			{'p', col[0], 0}, {'p', col[1], 1}, {'p', col[2], 2}, {'d', col[0], 0},
			{'p', col[0], 6},
		}},
		{"wraparound", []camOp{
			{'p', wrap[0], 0}, {'p', wrap[1], 1}, {'p', zero[0], 2}, {'p', wrap[2], 3},
			{'d', wrap[0], 0}, {'g', wrap[2], 0}, {'g', zero[0], 0},
			{'d', wrap[1], 0}, {'p', zero[1], 4}, {'d', zero[0], 0}, {'d', wrap[2], 0},
		}},
		{"delete-absent", []camOp{
			{'d', col[0], 0}, {'p', col[1], 1}, {'d', col[0], 0}, {'d', col[2], 0},
			{'d', col[1], 0}, {'d', col[1], 0},
		}},
		{"all-rows-live", full},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runCAM(t, rows, tc.ops) })
	}
}

// FuzzCAM drives the CAM table and a map reference through arbitrary
// put/get/delete sequences over a small key space (so keys collide and
// recur), never holding more live keys than the table's row budget.
// Run with `go test -fuzz=FuzzCAM` to explore.
func FuzzCAM(f *testing.F) {
	f.Add(uint8(8), []byte{0, 1, 0, 2, 0, 3, 2, 1, 1, 2, 0, 1})
	f.Add(uint8(1), []byte{0, 5, 2, 5, 0, 5, 0, 6})
	f.Add(uint8(64), []byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 2, 2, 0, 1, 3})
	f.Fuzz(func(t *testing.T, rowsByte uint8, raw []byte) {
		rows := int(rowsByte)%64 + 1
		tab := newCAMTable(rows)
		ref := make(map[uint64]int)
		for i := 0; i+1 < len(raw); i += 2 {
			addr := uint64(raw[i+1]) * 0x10001
			switch raw[i] % 3 {
			case 0:
				if _, ok := ref[addr]; !ok && len(ref) == rows {
					continue
				}
				tab.put(addr, int(raw[i])%rows)
				ref[addr] = int(raw[i]) % rows
			case 2:
				tab.delete(addr)
				delete(ref, addr)
			}
			checkCAM(t, "op "+strconv.Itoa(i/2), &tab, ref, addr)
		}
	})
}
