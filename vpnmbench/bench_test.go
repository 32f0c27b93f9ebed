package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/fault"
)

// shortRun sets up inorder-mixed-tcp with an optional DRAM fault hook
// and runs a short timed phase.
func shortRun(t *testing.T, hook dram.Hook) *result {
	t.Helper()
	w, err := findWorkload("inorder-mixed-tcp")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := setUp(w, 1, hook, false)
	if err != nil {
		t.Fatal(err)
	}
	res := &result{}
	err = s.measure(1, 300*time.Millisecond, res)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDataCheckSeesCorruption is the negative control: with ECC off,
// injected bit flips reach the payload, and the benchmark's data check
// must fail the run. The clean twin proves the check passes otherwise.
func TestDataCheckSeesCorruption(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		res := shortRun(t, nil)
		if len(res.problems) != 0 || res.failed != 0 {
			t.Fatalf("clean run failed: %d failed, problems %v", res.failed, res.problems)
		}
	})
	t.Run("bit-flips-ecc-off", func(t *testing.T) {
		inj, err := fault.New(fault.Config{Seed: 7, SingleBitRate: 1e-3, DisableECC: true})
		if err != nil {
			t.Fatal(err)
		}
		res := shortRun(t, inj)
		if inj.Counters().InjectedSingle == 0 {
			t.Fatal("the injector flipped no bits; the control proves nothing")
		}
		if res.mismatches == 0 || res.failed < res.mismatches || len(res.problems) == 0 {
			t.Fatalf("corrupted run passed: %d mismatches, %d failed, problems %v (injected %d flips)",
				res.mismatches, res.failed, res.problems, inj.Counters().InjectedSingle)
		}
	})
}

// TestLockstepWindowCoversIssueRateTimesD checks the structural
// liveness guard: a lockstep stack whose window cannot cover every read
// in flight is refused at construction, naming the window it needs,
// instead of hanging mid-run.
func TestLockstepWindowCoversIssueRateTimesD(t *testing.T) {
	w, err := findWorkload("ooo-read-pipe")
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.window = 1024
	s, err := buildStack(&small, nil, false)
	if err == nil {
		s.close()
		t.Fatal("a 1024-request lockstep window was accepted")
	}
	if !strings.Contains(err.Error(), "window 1024 must exceed") {
		t.Fatalf("error does not name the window: %v", err)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%v = %.1f, want %.1f within 1%%", q*100, got, want)
		}
	}
	if got := h.mean(); got != 50000.5 {
		t.Errorf("mean = %v, want 50000.5", got)
	}
}
