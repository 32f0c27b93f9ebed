package core

// This file is the dense reference implementation of the controller's
// per-cycle work: the pre-event-driven O(Banks) scans, preserved behind
// Config.DenseScan. It operates on exactly the same state as the
// event-driven path in controller.go — banks, queues, rows, the due
// queue — but recomputes occupancy totals, flush candidates, arbiter
// candidates and probe samples by scanning every bank each cycle
// instead of consulting the incrementally maintained active sets.
//
// Its purpose is verification, not speed: the differential tests drive
// a dense and an event-driven controller through identical fuzzed
// workloads (faults, merges, rekeys, both arbiter modes, probes,
// tracers) and require bit-identical completions, statistics, samples
// and trace events on every cycle. Any drift between the active sets
// and the scanned truth shows up as a divergence here. The gated
// BenchmarkTickSparse/BenchmarkTickDense pair quantifies what the
// event-driven path saves.

// tickDense is Tick's dense reference: full-bank scans for flushing,
// occupancy accounting and probe sampling.
func (c *Controller) tickDense() []Completion {
	c.cycle++
	c.stats.Cycles++
	c.advanceMemory() // selects the dense rotating scan via c.dense
	c.completions = c.completions[:0]
	occupied := 0
	for _, b := range c.banks {
		b.flushInflight(c.memTime)
		occupied += b.rowsInUse()
	}
	c.stats.RowOccupancySum += uint64(occupied)
	for e := c.popDue(); e != nil; e = c.popDue() {
		c.deliverDue(e)
	}
	if len(c.completions) > c.maxReads {
		panic("core: more playbacks due in a single interface cycle than the read admission cap")
	}
	c.endCycle()
	if c.cfg.Probe != nil {
		c.publishProbeDense()
	}
	return c.completions
}

// publishProbeDense recomputes the probe sample from a full-bank scan,
// overwriting (with necessarily equal values) the incrementally
// maintained per-bank mirrors the event-driven publishProbe trusts.
func (c *Controller) publishProbeDense() {
	s := &c.sample
	s.Cycle = c.cycle
	totalQ, rows, wb, maxQ := 0, 0, 0, 0
	for i, b := range c.banks {
		q := b.baq.Len()
		r := b.rowsInUse()
		c.perBankQueue[i] = int32(q)
		c.perBankRows[i] = int32(r)
		totalQ += q
		rows += r
		wb += b.wb.Len()
		if q > maxQ {
			maxQ = q
		}
	}
	s.QueueDepth = totalQ
	s.MaxBankQueue = maxQ
	s.DelayRowsInUse = rows
	s.WriteBufInUse = wb
	c.fillProbeLedger(s)
	c.cfg.Probe.ObserveTick(s)
}
