package daemon

import (
	"context"
	"errors"
	"testing"
	"time"
)

// deadFleet returns a one-replica fleet over an address nothing
// listens on (port 1).
func deadFleet(t *testing.T) *FleetClient {
	t.Helper()
	f, err := NewFleetClient([]string{"http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWaitHealthyStopsOnCancel pins the per-round cancellation check in
// FleetClient.WaitHealthy: against an unreachable daemon, a cancelled
// context must end the poll loop immediately instead of burning the
// full deadline in 50ms health probes.
func TestWaitHealthyStopsOnCancel(t *testing.T) {
	f := deadFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	err := f.WaitHealthy(ctx, 30*time.Second)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("WaitHealthy succeeded against a dead address")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitHealthy error = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("WaitHealthy ran %s after cancellation; the loop must stop at the first ctx.Err() check", elapsed)
	}
}

// TestWaitHealthyNilContext pins the nil-context tolerance the
// transport calls share: WaitHealthy(nil, ...) must poll to the
// deadline, not panic on the cancellation check.
func TestWaitHealthyNilContext(t *testing.T) {
	f := deadFleet(t)
	err := f.WaitHealthy(nil, 60*time.Millisecond)
	if err == nil {
		t.Fatal("WaitHealthy succeeded against a dead address")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("WaitHealthy error = %v; a nil context must mean no cancellation", err)
	}
}
