// Package daemon implements sweepd, the long-lived simulation service:
// the HTTP/JSON wire protocol shared by server and client, the Server
// that owns per-workload memoizing runners (single-flight L1) over one
// shared persistent sweep.Store (L2), and the FleetClient that lets a
// local sweep — repro -remote, or any sweep.Runner with its remote
// hooks set — route cacheable simulations through one or more running
// daemons instead of simulating locally. A single daemon is a
// one-replica fleet.
//
// Endpoints (DESIGN.md §10-11 document the full schemas):
//
//	POST /v1/batch/run    many run requests (own targets) in one round trip
//	POST /v1/batch/search many searches, fanned across the pool
//	GET  /v1/cache/stats  runner + store cache counters
//	POST /v1/cache/gc     trim the persistent store to given bounds
//	GET  /healthz         liveness (never throttled by the request limit)
//	GET  /metrics         Prometheus text exposition (DESIGN.md §15)
//
// Fleet mode shards keys across several daemons with the consistent-hash
// Ring and FleetClient (DESIGN.md §11).
package daemon

import (
	"bytes"
	"encoding/json"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/sweep"
)

// Target identifies the suite a request runs against: a workload at a
// scale (at most MaxScale). The zero scale means 1. The partition
// policy is not on the wire: the daemon finds it from Fingerprint
// (Server.runnerFor), and serves the classic partition without one.
//
// EngineVersion and Fingerprint, when set, make the daemon refuse
// (HTTP 409) to answer from a skewed build: a daemon left running
// across an engine-semantics bump, a lowering change or a workload
// recalibration would otherwise return results the client's own cache
// keys could never produce — and the client would install them into
// its local store under its own version key, poisoning exactly the
// entries the §9 key scheme exists to invalidate. FleetClient always
// sends its linked engine.Version and, from sweeps routed through the
// runner hooks, the local suite's source key.
type Target struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale,omitempty"`
	// EngineVersion, when non-empty, must equal the daemon's
	// engine.Version.
	EngineVersion string `json:"engine_version,omitempty"`
	// Fingerprint, when non-empty, must equal the
	// machine.Suite.Fingerprint() of the daemon's suite for the workload
	// under the classic partition or, failing that, under another: its
	// source key, a hash of lower.Version and of digests of the trace and
	// the partition assignment. A daemon built with another lowering
	// version, or one that builds the workload or its partition
	// differently, refuses the request.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// RunRequest is one simulation point: an item of a /v1/batch/run body.
type RunRequest struct {
	Target
	sweep.Point
}

// noKind is the Kind of a decoded RunRequest whose body named none.
const noKind = machine.Kind(255)

// UnmarshalJSON decodes an item as strictly as the body around it,
// leaving Kind at noKind when the item names none: machine.DM is Kind's
// zero value, so the server could not otherwise tell an omitted or null
// "kind" from the DM, and would run the DM silently.
func (r *RunRequest) UnmarshalJSON(data []byte) error {
	type plain RunRequest // without this method
	item := plain{Point: sweep.Point{Kind: noKind}}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&item); err != nil {
		return err
	}
	*r = RunRequest(item)
	return nil
}

// SearchRequest is an equivalent-window ratio search against one suite,
// probed through the daemon's shared cache: an item of a
// /v1/batch/search body. It runs the DM at Params and reports the
// equivalent-window ratio of Figures 7-9.
type SearchRequest struct {
	Target
	// Params configures the probes; Params.Window is the DM window.
	Params machine.Params `json:"params"`
}

// SearchResponse answers one SearchRequest. OK is false when the
// search saturated (no window within metrics.MaxEquivalentWindow).
type SearchResponse struct {
	Ratio float64 `json:"ratio,omitempty"`
	OK    bool    `json:"ok"`
}

// MaxScale caps Target.Scale; a larger scale is refused with 400 before
// anything is built. A trace grows linearly with its scale (TRFD holds
// about 9.5 MiB of heap per unit) and the daemon builds it while it
// validates the request, so an unbounded scale lets one small body
// exhaust the process's memory. Every client in this repository sends
// scale 1; the bound also caps how many per-scale experiment contexts a
// daemon holds.
const MaxScale = 8

// MaxBatchItems caps the item count of /v1/batch/run and
// /v1/batch/search requests. Larger batches are refused with 400 — a
// sweep shard legitimately reaches a few thousand points, but an
// unbounded batch is indistinguishable from a decoder bomb (the
// body size limit alone would still admit millions of tiny items).
const MaxBatchItems = 4096

// BatchRequest is the body of both batch endpoints: up to
// MaxBatchItems items answered in one round trip.
type BatchRequest[I any] struct {
	Items []I `json:"items"`
}

// BatchResponse is a batch endpoint's reply; Results[i] answers
// Items[i].
type BatchResponse[R any] struct {
	Results []R `json:"results"`
}

// BatchRunRequest is the POST /v1/batch/run body: up to MaxBatchItems
// independent run requests answered in one round trip. Items carry
// their own targets, so one request may span workloads and scales —
// a fleet replica receives whatever slice of a cross-workload sweep
// (Table1's global point list, a figure's DM anchors) the ring routed
// to it, batched by the client into a single round trip.
type BatchRunRequest = BatchRequest[RunRequest]

// BatchRunResponse is the POST /v1/batch/run reply; Results[i] answers
// Items[i]. The batch is all-or-nothing: any invalid item fails the
// whole request (400/409) before anything simulates.
type BatchRunResponse = BatchResponse[*engine.Result]

// BatchSearchRequest is the POST /v1/batch/search body: up to
// MaxBatchItems searches executed server-side, fanned across the
// daemon's pool, answered in one round trip.
type BatchSearchRequest = BatchRequest[SearchRequest]

// BatchSearchResponse is the POST /v1/batch/search reply; Results[i]
// answers Items[i].
type BatchSearchResponse = BatchResponse[SearchResponse]

// GCRequest is the POST /v1/cache/gc body; zero fields are unbounded,
// matching sweep.GCPolicy. MaxAge uses time.Duration syntax ("24h").
type GCRequest struct {
	MaxEntries int    `json:"max_entries,omitempty"`
	MaxBytes   int64  `json:"max_bytes,omitempty"`
	MaxAge     string `json:"max_age,omitempty"`
}

// StatsResponse is the GET /v1/cache/stats reply.
type StatsResponse struct {
	// Runner aggregates cache traffic across every runner the daemon has
	// built; HitRate is its composite hit rate.
	Runner  sweep.CacheStats `json:"runner"`
	HitRate float64          `json:"hit_rate"`
	// Store is the persistent layer's counters and StoreEntries its
	// current on-disk entry count (zero values when no store is attached).
	Store        sweep.StoreStats `json:"store"`
	StoreEntries int              `json:"store_entries"`
	// UptimeSeconds and the request counters describe the serving
	// process. Requests counts admitted work — simulation requests that
	// made it past the draining gate and the admission semaphore (the
	// number the CI smokes assert on); Received counts every arrival at
	// a throttled endpoint, Refused the draining 503s, and QueueTimeouts
	// the requests whose deadline expired while queued for a slot, so
	// Received = Requests + Refused + QueueTimeouts + currently queued.
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Received      int64   `json:"received"`
	Refused       int64   `json:"refused"`
	QueueTimeouts int64   `json:"queue_timeouts"`
}

// DrainingHeader marks 503 refusals from a daemon in graceful
// shutdown (Server.BeginDrain); DrainingValue is both its value and
// the /healthz status of a draining daemon. Fleet clients treat the
// marker as "stop routing here, nothing is wrong": the work reroutes
// without a breaker penalty or a backoff round, because a clean drain
// is operational hygiene, not a failure.
const (
	DrainingHeader = "X-Sweepd-State"
	DrainingValue  = "draining"
)

// HealthResponse is the GET /healthz reply. Status is "ok", or
// "draining" while the daemon winds down (routable probes should treat
// draining as not-ready). EngineVersion lets clients and probes detect
// a version-skewed daemon before routing work to it (FleetClient.Health
// checks it). ReplicaID and Fleet, set when sweepd runs with
// -replica/-fleet, advertise the daemon's view of the ring so a fleet
// client can detect membership skew — a client and a replica
// disagreeing on the member list would route keys to different owners,
// silently splitting the cache — before any work routes (checked by
// FleetClient.Health).
type HealthResponse struct {
	Status        string   `json:"status"`
	EngineVersion string   `json:"engine_version"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	ReplicaID     string   `json:"replica_id,omitempty"`
	Fleet         []string `json:"fleet,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
