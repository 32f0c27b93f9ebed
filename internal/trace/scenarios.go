package trace

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hash"
)

// Scenario is one of the three Figure 1 cases.
type Scenario struct {
	Name        string
	Description string
	Render      string
}

// figConfig builds a small controller whose internals are easy to read
// in a timeline: 4 banks, identity mapping so the scenario controls
// bank placement, and an R of 1 so the two clock domains coincide.
func figConfig(tr core.Tracer) core.Config {
	return core.Config{
		Banks:         4,
		AccessLatency: 15, // Figure 1 uses L=15
		QueueDepth:    2,  // and Q=2
		DelayRows:     4,
		RatioNum:      1,
		RatioDen:      1,
		WordBytes:     8,
		HashLatency:   1,
		Hash:          hash.NewIdentity(2),
		Trace:         tr,
	}
}

// Figure1 reproduces the paper's Figure 1 with the three access
// patterns run through the real controller: typical operation (two
// independent requests to one bank — the conflict is absorbed),
// short-cut accesses (redundant requests merged without bank accesses),
// and a bank overload (too many distinct requests to one bank in a
// short window, ending in a stall).
func Figure1() ([]Scenario, error) {
	type pattern struct {
		name, desc string
		ops        []uint64 // addresses, all mapping to bank 0; one per cycle
		gap        int      // idle cycles between ops
	}
	// Identity over 2 bits: multiples of 4 all hit bank 0.
	a, b2, c, d, e := uint64(0), uint64(4), uint64(8), uint64(12), uint64(16)
	patterns := []pattern{
		{
			name: "typical operating mode",
			desc: "two reads conflict on one bank; the second is queued and both still complete exactly D cycles after issue",
			ops:  []uint64{a, b2}, gap: 4,
		},
		{
			name: "short-cut accesses",
			desc: "redundant reads (A,B,A,A) merge into existing rows: no extra bank accesses, same fixed delay",
			ops:  []uint64{a, b2, a, a}, gap: 2,
		},
		{
			name: "bank overload stall",
			desc: "five distinct reads to one bank in a short window exceed Q and the last one stalls",
			ops:  []uint64{a, b2, c, d, e}, gap: 0,
		},
	}
	var out []Scenario
	for _, p := range patterns {
		events := NewRing(len(p.ops))
		ctrl, err := core.New(figConfig(events.ForChannel(0)))
		if err != nil {
			return nil, fmt.Errorf("trace: building figure-1 controller: %w", err)
		}
		for _, addr := range p.ops {
			if _, err := ctrl.Read(addr); err != nil && !core.IsStall(err) {
				return nil, err
			}
			ctrl.Tick()
			for g := 0; g < p.gap; g++ {
				ctrl.Tick()
			}
		}
		ctrl.Flush()
		out = append(out, Scenario{
			Name:        p.name,
			Description: p.desc,
			Render:      Timeline(events.Snapshot(), 1, 1, 2),
		})
	}
	return out, nil
}
