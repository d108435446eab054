package daemon

import "errors"

// Classified error sentinels for the fleet boundary. Every error a
// Client or FleetClient method mints must carry a retryability signal —
// a *StatusError (Retryable() follows the HTTP code) or a chain wrapping
// one of these — so the retry ladder in fleet.go and callers like
// sweep.Runner.Degrade can classify failures with errors.Is instead of
// guessing from strings. daelint's errclass analyzer enforces this
// structurally.
var (
	// ErrMalformedReply marks a syntactically valid daemon reply whose
	// shape is wrong: a missing result, a count mismatch, a null slot.
	// Retryable — the damage is replica-local (a truncating proxy, a
	// half-written response), so failover to the next candidate is the
	// right move.
	ErrMalformedReply = errors.New("daemon: malformed reply")

	// ErrFleetUnhealthy marks a failed health interrogation: bad status,
	// engine version skew, membership skew, duplicate replica IDs. Not
	// retryable under the current topology — an operator has to fix the
	// fleet, not the caller's luck.
	ErrFleetUnhealthy = errors.New("daemon: fleet unhealthy")
)
