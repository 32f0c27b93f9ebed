package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// perLayer runs the workload untraced and then traced, replays the
// timed stream through each layer alone, and reports the per-layer
// metrics, an attribution table and the tracing overhead.
func perLayer(out io.Writer, w *workload, seed uint64, dur time.Duration) (verdict, error) {
	base, err := runE2E(w, seed, dur, 1)
	if err != nil {
		return verdict{}, err
	}
	printRun(out, "untraced", base)

	s, _, err := setUp(w, seed, nil, true)
	if err != nil {
		return verdict{}, err
	}
	res := &result{}
	err = s.measure(seed, dur, res)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return verdict{}, err
	}
	printRun(out, "traced", res)
	cs := coreLedger(s)

	n := res.reqs
	reads := res.ctr1.Reads - res.ctr0.Reads
	rf := float64(reads) / float64(n)
	ops := w.ops(seed, streamTimed, int(min(n, replayLen)))
	reqBatch := w.batch
	if !w.manual && res.txWrites > 0 {
		reqBatch = int(math.Round(float64(n) / float64(res.txWrites)))
	}
	reqBatch = max(1, min(reqBatch, w.maxBatch))
	compBatch := max(1, int(math.Round(float64(reads)/float64(res.cycles))))
	ws, err := wireReplay(ops, reqBatch, compBatch, uint64(res.snap1.Delay))
	if err != nil {
		return verdict{}, err
	}
	ss, err := serverReplay(w, ops, reqBatch)
	if err != nil {
		return verdict{}, err
	}
	ms, err := mcReplay(w, ops)
	if err != nil {
		return verdict{}, err
	}
	coreNs, err := coreTick(w, ops, res.reqPerCycle()/float64(w.channels))
	if err != nil {
		return verdict{}, err
	}

	fn := float64(n)
	tr := res.tr
	issueP50 := tr.issue.quantile(0.5)
	d0, d1 := res.snap0, res.snap1
	perReq := func(a, b uint64) float64 { return float64(b-a) / fn }
	mcCyc := float64(ms.cycles) / float64(len(ops))
	var mcIssue float64
	if w.ooo {
		mcIssue = ms.admit + ms.sweep*mcCyc
	} else {
		mcIssue = rf*ms.read + (1-rf)*ms.write
	}
	mcTotal := mcIssue + ms.tick*mcCyc
	coreTotal := coreNs * float64(w.channels) * mcCyc
	e2eNs := 1e9 / base.reqPerS

	rows := []attrRow{
		{"client issue (Read/Write call, p50)", issueP50},
		{"wire codec (request enc+dec, completion enc+dec)", ws.reqEnc + ws.reqDec + rf*(ws.compEnc+ws.compDec)},
		{"server engine (net of codec and memory)", math.Max(0, ss.nsPerReq-ws.reqDec-rf*ws.compEnc-mcTotal)},
		{"multichannel issue and Tick (net of controllers)", math.Max(0, mcTotal-coreTotal)},
		{"core controller Tick", coreTotal},
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
	}
	residual := e2eNs - sum
	printAttribution(out, w, e2eNs, rows, residual)
	fmt.Fprintf(out, "tracing overhead: req_per_s %+.1f 1/s (traced %.1f vs untraced %.1f), cpu_us_per_req %+.4f us\n",
		res.reqPerS-base.reqPerS, res.reqPerS, base.reqPerS, res.cpuUsReq-base.cpuUsReq)
	fmt.Fprintf(out, "replays: %d requests, request frames of %d, completion frames of %d; client+handoff share 1e9/req_per_s - server.ns_per_req = %.1f ns\n",
		len(ops), reqBatch, compBatch, e2eNs-ss.nsPerReq)

	m := map[string]metric{
		"client.issue_ns_p50":            {issueP50, "ns"},
		"client.kick_ns_mean":            {tr.kick.mean(), "ns"},
		"client.window_wait_frac":        {tr.issue.excessOver(issueP50) / float64(res.wall), "ratio"},
		"client.inflight_mean":           {tr.inflightSum / math.Max(1, float64(tr.inflightN)), "count"},
		"client.retries_per_req":         {perReq(res.ctr0.Retries, res.ctr1.Retries), "count"},
		"client.gen_lag_p99_us":          {tr.lag.quantile(0.99) / 1e3, "us"},
		"wire.tx_bytes_per_req":          {float64(res.txBytes) / fn, "B"},
		"wire.rx_bytes_per_req":          {float64(res.rxBytes) / fn, "B"},
		"wire.tx_writes_per_req":         {float64(res.txWrites) / fn, "count"},
		"wire.rx_reads_per_req":          {float64(res.rxReads) / fn, "count"},
		"wire.req_encode_ns":             {ws.reqEnc, "ns"},
		"wire.req_decode_ns":             {ws.reqDec, "ns"},
		"wire.comp_encode_ns":            {ws.compEnc, "ns"},
		"wire.comp_decode_ns":            {ws.compDec, "ns"},
		"wire.allocs_per_req":            {ws.allocs, "count"},
		"server.ns_per_req":              {ss.nsPerReq, "ns"},
		"server.allocs_per_req":          {ss.allocsPerReq, "count"},
		"server.handoff_ns_per_req":      {e2eNs - ss.nsPerReq, "ns"},
		"server.cycles_per_s":            {float64(res.cycles) / res.wall.Seconds(), "1/s"},
		"server.busy_retries_per_req":    {perReq(d0.Busy, d1.Busy), "count"},
		"server.stall_retries_per_req":   {perReq(d0.StallRetries, d1.StallRetries), "count"},
		"server.stalls_surfaced_per_req": {perReq(d0.Stalls, d1.Stalls), "count"},
		"multichannel.tick_ns":           {ms.tick, "ns"},
		"multichannel.read_ns":           {ms.read, "ns"},
		"multichannel.write_ns":          {ms.write, "ns"},
		"multichannel.stage_admit_ns":    {ms.admit, "ns"},
		"multichannel.stage_sweep_ns":    {ms.sweep, "ns"},
		"multichannel.busy_per_req":      {ms.busyPerReq, "count"},
		"multichannel.bypass_per_req":    {ms.bypassPerReq, "count"},
		"multichannel.req_per_cycle":     {ms.reqPerCycle, "req/cycle"},
		"multichannel.allocs_per_req":    {ms.allocsPerReq, "count"},
		"core.merged_read_frac":          {cs.mergedFrac, "ratio"},
		"core.stalls_per_mreq":           {cs.stallsPerM, "count"},
		"core.bus_util":                  {cs.busUtil, "ratio"},
		"core.rows_in_use_mean":          {cs.rowsMean, "count"},
		"core.peak_queue_len":            {cs.peakQueue, "count"},
		"core.dram_accesses_per_req":     {cs.dramPerReq, "count"},
		"core.tick_ns":                   {coreNs, "ns"},
		"process.allocs_per_req":         {base.allocsReq, "count"},
		"attr.residual_ns_per_req":       {residual, "ns"},
		"trace.overhead_req_per_s":       {res.reqPerS - base.reqPerS, "1/s"},
		"trace.overhead_cpu_us_per_req":  {res.cpuUsReq - base.cpuUsReq, "us"},
	}
	res.problems = append(base.problems, res.problems...)
	res.attempted += base.attempted
	res.failed += base.failed
	return finish(out, res, m), nil
}

// coreStats sums the controllers' own ledgers over a whole run.
type coreStats struct {
	mergedFrac, stallsPerM, busUtil, rowsMean, peakQueue, dramPerReq float64
}

// coreLedger reads every channel's controller ledger. The engine must
// already be closed: it owns the memory while it runs.
func coreLedger(s *stack) coreStats {
	var reads, writes, merged, stalls, busy, memCycles, dram uint64
	var cs coreStats
	for ch := 0; ch < s.mem.Channels(); ch++ {
		st := s.mem.ChannelStats(ch)
		reads += st.Reads
		writes += st.Writes
		merged += st.MergedReads
		stalls += st.Stalls.Total()
		busy += st.BusBusy
		memCycles += st.MemCycles
		dram += st.DRAMAccesses
		cs.rowsMean += st.MeanRowsInUse() / float64(s.mem.Channels())
		cs.peakQueue = math.Max(cs.peakQueue, float64(st.PeakQueueLen))
	}
	reqs := float64(reads + writes)
	cs.mergedFrac = float64(merged) / float64(max(reads, 1))
	cs.stallsPerM = float64(stalls) / reqs * 1e6
	cs.busUtil = float64(busy) / float64(max(memCycles, 1))
	cs.dramPerReq = float64(dram) / reqs
	return cs
}

type attrRow struct {
	name string
	ns   float64
}

// printAttribution renders the per-request time ledger: layer self
// times from the replays, and a residual that closes the sum to the
// end-to-end 1e9/req_per_s. The residual is goroutine hand-off and
// waiting; it goes negative where the client and engine goroutines
// overlap on separate cores.
func printAttribution(out io.Writer, w *workload, e2e float64, rows []attrRow, residual float64) {
	fmt.Fprintf(out, "\nattribution, %s (ns per request; sums to 1e9/req_per_s)\n", w.name)
	fmt.Fprintf(out, "  %-52s %10s %7s\n", "layer", "ns/req", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-52s %10.1f %6.1f%%\n", r.name, r.ns, 100*r.ns/e2e)
	}
	fmt.Fprintf(out, "  %-52s %10.1f %6.1f%%\n", "residual (hand-off, waiting, idle; < 0: overlap)", residual, 100*residual/e2e)
	fmt.Fprintf(out, "  %-52s %10.1f %6.1f%%\n\n", "end to end (1e9 / req_per_s, untraced)", e2e, 100.0)
}
