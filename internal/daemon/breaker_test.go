package daemon

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"daesim/internal/machine"
	"daesim/internal/sweep"
)

// fakeFleet builds a FleetClient over dummy URLs (no sockets are ever
// dialed — tests drive scatter with their own exec functions),
// with a controllable clock and recorded, non-blocking sleeps.
func fakeFleet(t *testing.T, n int) (*FleetClient, *time.Time, *[]time.Duration) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://replica-%d", i)
	}
	f, err := NewFleetClient(urls)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	var slept []time.Duration
	f.now = func() time.Time { return now }
	f.sleep = func(d time.Duration) { slept = append(slept, d) }
	return f, &now, &slept
}

// keyOwnedBy finds a routing key whose first owner is the wanted
// replica (ring placement depends on the member URLs, so search).
func keyOwnedBy(t *testing.T, f *FleetClient, replica int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if f.ring.Owner(key) == replica {
			return key
		}
	}
	t.Fatal("no key found for replica")
	return ""
}

// TestBreakerTransitions walks one replica's breaker through the full
// closed -> open -> half-open -> open -> half-open -> closed cycle on a
// fake clock.
func TestBreakerTransitions(t *testing.T) {
	t.Parallel()
	f, now, _ := fakeFleet(t, 1)
	f.FailureThreshold = 3
	f.Cooldown = time.Second

	if !f.allow(0) || f.breakerIs(0) != bkClosed {
		t.Fatal("fresh breaker must be closed and admitting")
	}
	// Two failures stay under the threshold.
	f.onFailure(0)
	f.onFailure(0)
	if f.breakerIs(0) != bkClosed || !f.allow(0) {
		t.Fatal("breaker must stay closed below the failure threshold")
	}
	// The third opens it.
	f.onFailure(0)
	if f.breakerIs(0) != bkOpen {
		t.Fatal("threshold-th consecutive failure must open the breaker")
	}
	if f.allow(0) {
		t.Fatal("open breaker must refuse work inside the cooldown")
	}
	if got := f.Metrics().BreakerOpens; got != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", got)
	}
	// Success resets the consecutive-failure count: two failures, a
	// success, then two more must not open.
	f2, _, _ := fakeFleet(t, 1)
	f2.FailureThreshold = 3
	f2.onFailure(0)
	f2.onFailure(0)
	f2.onSuccess(0)
	f2.onFailure(0)
	f2.onFailure(0)
	if f2.breakerIs(0) != bkClosed {
		t.Fatal("success must reset the consecutive-failure count")
	}

	// Cooldown expiry: half-open admits exactly one probe.
	*now = now.Add(999 * time.Millisecond)
	if f.allow(0) {
		t.Fatal("breaker must stay open until the cooldown elapses")
	}
	*now = now.Add(2 * time.Millisecond)
	if !f.allow(0) {
		t.Fatal("expired breaker must admit a probe")
	}
	if f.breakerIs(0) != bkHalfOpen {
		t.Fatal("expired breaker must be half-open")
	}
	if f.allow(0) {
		t.Fatal("half-open breaker must admit only one probe at a time")
	}
	// Failed probe re-opens for a fresh cooldown.
	f.onFailure(0)
	if f.breakerIs(0) != bkOpen || f.allow(0) {
		t.Fatal("failed probe must re-open the breaker")
	}
	if got := f.Metrics().BreakerOpens; got != 2 {
		t.Fatalf("BreakerOpens = %d, want 2", got)
	}
	// Successful probe closes it and restores full traffic.
	*now = now.Add(2 * time.Second)
	if !f.allow(0) {
		t.Fatal("re-expired breaker must admit a probe")
	}
	f.onSuccess(0)
	if f.breakerIs(0) != bkClosed {
		t.Fatal("successful probe must close the breaker")
	}
	if !f.allow(0) || !f.allow(0) {
		t.Fatal("closed breaker must admit unlimited work")
	}
}

// TestScatterBreakerRecovery drives the scatter loop against a replica
// that fails, watches its breaker open and traffic shift to the
// survivor, then heals the replica and watches the cooldown probe
// return it to the scatter rotation.
func TestScatterBreakerRecovery(t *testing.T) {
	t.Parallel()
	f, now, _ := fakeFleet(t, 2)
	f.FailureThreshold = 3
	f.Cooldown = time.Second
	key := keyOwnedBy(t, f, 0)

	down := true
	calls := [2]int{}
	exec := func(_ context.Context, replica int, _ []int) error {
		calls[replica]++
		if replica == 0 && down {
			return &StatusError{Code: 500, Msg: "injected"}
		}
		return nil
	}
	one := func() error {
		return f.scatter(context.Background(), 1, func(int) string { return key }, exec)
	}

	// Three failing calls: each tries replica 0, fails, and settles on
	// replica 1 — opening replica 0's breaker on the third.
	for i := 0; i < 3; i++ {
		if err := one(); err != nil {
			t.Fatalf("call %d should have failed over: %v", i, err)
		}
	}
	if calls[0] != 3 || calls[1] != 3 {
		t.Fatalf("calls = %v, want [3 3]", calls)
	}
	if f.breakerIs(0) != bkOpen {
		t.Fatal("replica 0's breaker should be open after 3 consecutive failures")
	}
	// While open, the owner is skipped without being dialed.
	if err := one(); err != nil {
		t.Fatal(err)
	}
	if calls[0] != 3 {
		t.Fatalf("open breaker was dialed anyway: calls = %v", calls)
	}
	// Heal the replica; after the cooldown the next call probes it,
	// succeeds, and closes the breaker — replica 0 rejoins the scatter.
	down = false
	*now = now.Add(2 * time.Second)
	if err := one(); err != nil {
		t.Fatal(err)
	}
	if calls[0] != 4 {
		t.Fatalf("cooldown probe never reached the healed replica: calls = %v", calls)
	}
	if f.breakerIs(0) != bkClosed {
		t.Fatal("successful probe must close the breaker")
	}
	if err := one(); err != nil || calls[0] != 5 {
		t.Fatalf("healed replica must serve its keys again: calls = %v, err = %v", calls, err)
	}
	m := f.Metrics()
	if m.Retries != 3 || m.BreakerOpens != 1 || m.Unavailable != 0 {
		t.Fatalf("metrics = %+v, want 3 retries, 1 breaker open, 0 unavailable", m)
	}
}

// TestScatterForcesAttemptWhenAllOpen: open breakers must not fail a
// call unattempted when they are the only candidates — the marks are
// ignored and the call still goes out.
func TestScatterForcesAttemptWhenAllOpen(t *testing.T) {
	t.Parallel()
	f, _, _ := fakeFleet(t, 1)
	f.FailureThreshold = 1
	f.onFailure(0)
	if f.breakerIs(0) != bkOpen {
		t.Fatal("setup: breaker should be open")
	}
	served := 0
	err := f.scatter(context.Background(), 1, func(int) string { return "k" }, func(_ context.Context, replica int, _ []int) error {
		served++
		return nil
	})
	if err != nil || served != 1 {
		t.Fatalf("forced attempt must execute and succeed: served=%d err=%v", served, err)
	}
	if f.breakerIs(0) != bkClosed {
		t.Fatal("forced success must close the breaker")
	}
}

// TestScatterUnavailableIsPartial: points that exhaust every candidate
// produce an error wrapping sweep.ErrUnavailable (the Degrade signal)
// while the caller's settled slots stay valid.
func TestScatterUnavailableIsPartial(t *testing.T) {
	t.Parallel()
	f, _, slept := fakeFleet(t, 2)
	// Points 0 and 2 route to replica 0, point 1 to replica 1, so the
	// failing point never drags group-mates down with it.
	keyA, keyB := keyOwnedBy(t, f, 0), keyOwnedBy(t, f, 1)
	var served []int
	err := f.scatter(context.Background(), 3, func(i int) string {
		if i == 1 {
			return keyB
		}
		return keyA
	}, func(_ context.Context, replica int, idx []int) error {
		for _, i := range idx {
			if i == 1 {
				return &StatusError{Code: 500, Msg: "injected"}
			}
		}
		served = append(served, idx...)
		return nil
	})
	if err == nil {
		t.Fatal("exhausted point must surface an error")
	}
	if !errors.Is(err, sweep.ErrUnavailable) {
		t.Fatalf("exhaustion error must wrap sweep.ErrUnavailable, got %v", err)
	}
	if f.Metrics().Unavailable != 1 {
		t.Fatalf("Unavailable = %d, want 1", f.Metrics().Unavailable)
	}
	if len(*slept) == 0 {
		t.Fatal("failing rounds must be separated by backoff sleeps")
	}
	// The two healthy points settled despite point 1's exhaustion.
	seen := map[int]bool{}
	for _, i := range served {
		seen[i] = true
	}
	if !seen[0] || !seen[2] {
		t.Fatalf("surviving points must settle: served %v", served)
	}
}

// TestScatterFatalErrorsFailFast: non-retryable refusals (4xx, 409
// skew) must fail the call immediately, with no reroute, no backoff
// and no breaker charge.
func TestScatterFatalErrorsFailFast(t *testing.T) {
	t.Parallel()
	f, _, slept := fakeFleet(t, 2)
	calls := 0
	err := f.scatter(context.Background(), 1, func(int) string { return "k" }, func(_ context.Context, replica int, _ []int) error {
		calls++
		return &StatusError{Code: 409, Msg: "version skew"}
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 409 {
		t.Fatalf("fatal error must surface verbatim, got %v", err)
	}
	if calls != 1 || len(*slept) != 0 {
		t.Fatalf("fatal error must not retry or back off: calls=%d sleeps=%v", calls, *slept)
	}
	if f.breakerIs(0) != bkClosed || f.breakerIs(1) != bkClosed {
		t.Fatal("fatal errors must not charge breakers")
	}
}

// TestScatterDrainingReroutesWithoutPenalty: a draining replica's work
// moves to the next owner with no breaker charge, no retry count and
// no backoff round.
func TestScatterDrainingReroutesWithoutPenalty(t *testing.T) {
	t.Parallel()
	f, _, slept := fakeFleet(t, 2)
	f.FailureThreshold = 1 // any real failure would open instantly
	key := keyOwnedBy(t, f, 0)
	calls := [2]int{}
	err := f.scatter(context.Background(), 1, func(int) string { return key }, func(_ context.Context, replica int, _ []int) error {
		calls[replica]++
		if replica == 0 {
			return &StatusError{Code: 503, Msg: "draining", Draining: true}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != [2]int{1, 1} {
		t.Fatalf("calls = %v, want [1 1]", calls)
	}
	if f.breakerIs(0) != bkClosed {
		t.Fatal("draining must not charge the breaker")
	}
	if len(*slept) != 0 {
		t.Fatalf("draining must not trigger backoff, slept %v", *slept)
	}
	m := f.Metrics()
	if m.DrainingReroutes != 1 || m.Retries != 0 {
		t.Fatalf("metrics = %+v, want 1 draining reroute and 0 retries", m)
	}
}

// TestScatterCancellation: a cancelled context surfaces as the context
// error, never as unavailability (which Degrade would silently absorb).
func TestScatterCancellation(t *testing.T) {
	t.Parallel()
	f, _, _ := fakeFleet(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	err := f.scatter(ctx, 1, func(int) string { return "k" }, func(_ context.Context, replica int, _ []int) error {
		cancel()
		return &StatusError{Code: 500, Msg: "injected"}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scatter must return the context error, got %v", err)
	}
	if errors.Is(err, sweep.ErrUnavailable) {
		t.Fatal("cancellation must never read as unavailability")
	}
}

// TestBackoffDeterministicAndBounded: the retry backoff is a pure
// function of (seed, round), grows exponentially, and caps at
// BackoffMax — the property that pins retry pacing across chaos
// replays.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	t.Parallel()
	f, _, _ := fakeFleet(t, 1)
	f.BackoffBase = 10 * time.Millisecond
	f.BackoffMax = 80 * time.Millisecond
	f.BackoffSeed = 42
	g, _, _ := fakeFleet(t, 1)
	g.BackoffBase = 10 * time.Millisecond
	g.BackoffMax = 80 * time.Millisecond
	g.BackoffSeed = 42
	prevCap := time.Duration(0)
	for round := 0; round < 10; round++ {
		d := f.backoffDelay(round)
		if d != g.backoffDelay(round) {
			t.Fatalf("round %d: backoff not deterministic", round)
		}
		envelope := f.BackoffBase << uint(round)
		if envelope > f.BackoffMax {
			envelope = f.BackoffMax
		}
		if d < envelope/2 || d >= envelope {
			t.Fatalf("round %d: delay %v outside jitter envelope [%v,%v)", round, d, envelope/2, envelope)
		}
		if envelope == f.BackoffMax && prevCap != 0 {
			// Past the cap the envelope stops growing.
			if d >= f.BackoffMax {
				t.Fatalf("round %d: delay %v at or above the cap", round, d)
			}
		}
		prevCap = envelope
	}
	g.BackoffSeed = 43
	diff := false
	for round := 0; round < 10; round++ {
		if f.backoffDelay(round) != g.backoffDelay(round) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should jitter differently")
	}
}

// TestHealthRejectsDraining: the fleet health gate treats a draining
// replica as unhealthy (stop sending it new work), while the scatter
// path keeps completing via the survivors.
func TestHealthRejectsDraining(t *testing.T) {
	t.Parallel()
	fleet, servers, _ := newFleet(t, 2, nil, nil)
	if err := fleet.Health(context.Background()); err != nil {
		t.Fatalf("healthy fleet must pass: %v", err)
	}
	servers[0].BeginDrain()
	if !servers[0].Draining() {
		t.Fatal("BeginDrain must latch")
	}
	err := fleet.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("draining replica must fail the health gate, got %v", err)
	}
	// In-flight routing survives: whichever replica owns the point, the
	// call completes, and the drain charges nothing.
	pt := sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}}
	if _, err := fleet.Run(context.Background(), testWorkload, 1, "", pt); err != nil {
		t.Fatalf("run must reroute off the draining replica: %v", err)
	}
	if fleet.Metrics().Retries != 0 {
		t.Fatalf("draining reroute must not count as a retry: %+v", fleet.Metrics())
	}
	if fleet.breakerIs(0) != bkClosed || fleet.breakerIs(1) != bkClosed {
		t.Fatal("draining must not charge breakers")
	}
}
