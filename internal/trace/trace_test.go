package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func TestRecorderCapturesLifecycle(t *testing.T) {
	events := NewRing(1)
	ctrl, err := core.New(figConfig(events.ForChannel(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Read(0); err != nil {
		t.Fatal(err)
	}
	ctrl.Flush()
	got := events.Snapshot()
	var kinds []telemetry.EventKind
	for _, e := range got {
		kinds = append(kinds, e.Kind)
	}
	want := []telemetry.EventKind{telemetry.EvRead, telemetry.EvIssueRead, telemetry.EvDataReady, telemetry.EvDeliver}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v want %v", i, kinds[i], want[i])
		}
	}
	// Delivery exactly D after issue.
	if d := got[3].Cycle - got[0].Cycle; d != uint64(ctrl.Delay()) {
		t.Fatalf("delivery after %d cycles want %d", d, ctrl.Delay())
	}
}

func TestMergedRequestHasNoIssue(t *testing.T) {
	events := NewRing(2)
	ctrl, err := core.New(figConfig(events.ForChannel(0)))
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Read(0)
	ctrl.Tick()
	ctrl.Read(0) // redundant: must merge
	ctrl.Flush()
	issues := 0
	merged := 0
	for _, e := range events.Snapshot() {
		if e.Kind == telemetry.EvIssueRead {
			issues++
		}
		if e.Kind == telemetry.EvMergedRead {
			merged++
		}
	}
	if issues != 1 {
		t.Fatalf("issues = %d want 1 (merge must not access the bank)", issues)
	}
	if merged != 1 {
		t.Fatalf("merged = %d want 1", merged)
	}
}

func TestFigure1Scenarios(t *testing.T) {
	scs, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("scenarios = %d want 3", len(scs))
	}
	// Typical mode: two rows with access spans and deliveries.
	if got := strings.Count(scs[0].Render, "read "); got < 2 {
		t.Errorf("typical: %d read rows", got)
	}
	if !strings.Contains(scs[0].Render, "#") || !strings.Contains(scs[0].Render, "D") {
		t.Errorf("typical render missing access/delivery marks:\n%s", scs[0].Render)
	}
	// Short-cut: merged rows marked read*.
	if !strings.Contains(scs[1].Render, "read*") {
		t.Errorf("short-cut render has no merged rows:\n%s", scs[1].Render)
	}
	// Overload: a stall row.
	if !strings.Contains(scs[2].Render, "STALL") {
		t.Errorf("overload render has no stall:\n%s", scs[2].Render)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if got := Timeline(nil, 1, 1, 1); got != "(no events)\n" {
		t.Fatalf("empty timeline = %q", got)
	}
}

func TestTimelineScaleClamped(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.EvRead, Cycle: 0, Addr: 1, Tag: 1},
		{Kind: telemetry.EvDeliver, Cycle: 10, Addr: 1, Tag: 1},
	}
	out := Timeline(events, 1, 1, 0) // scale 0 must clamp to 1
	if !strings.Contains(out, "D") {
		t.Fatalf("render: %q", out)
	}
}
