package engine

// Version tags the engine's observable semantics for persistent result
// caches. Any change that can alter a Result for the same (program,
// config) — issue/dispatch ordering, retirement accounting, event-queue
// semantics, new statistics — must bump this string, which invalidates
// every on-disk cache entry (sweep.Store folds it into the entry key).
// Pure performance work that provably preserves Results (the differential
// reference tests gate this) does not bump it.
//
// History:
//
//	v1 — seed map/heap engine
//	v2 — calendar queue + SoA hot path (bit-identical to v1 by test)
//	v3 — machine-level retirement defaults resolved by the caller; the
//	     SWSM now retires in order (see machine.RetirePolicy), so cached
//	     points carry the resolved policy in their key
//	v4 — Result.MemHits: a memory model's hit count rides the result,
//	     and memory models are cacheable parameters (machine.Params.Mem)
//
// Not bumped for the steady-state skip (orbit.go), which jumps repeated
// orbits of the machine state instead of simulating them: it changes
// Sim.Run's surface in semantics.lock but no Result, because a jump lands
// exactly where simulating would have and every additive counter gains
// exactly the skipped orbits' counts. ReferenceRun, which never skips,
// is the oracle (TestOrbitSkipMatchesReference, TestOrbitSkipCatalog,
// FuzzOrbitSkip), and points.lock pins Cycles, MemHits and a digest of
// the whole Result of every point repro -exp all simulates, unchanged.
//
// Not bumped either for the decoupled split (split.go), which runs a
// program whose AU never reads a DU value as an AU pass and then a DU
// pass fed the AU's recorded times, nor for the skip's sooner first
// sample and tighter frontier bound: semantics.lock gains the passes,
// but every Result is the joint run's (TestSplitMatchesReference,
// FuzzDecoupledSplit, TestOrbitSkipCatalog's small DM windows), and
// results.lock and points.lock are unchanged.
//
// Not bumped either for the certified lower bound (lowerbound.go),
// which no Result carries: Sim.LowerBound and Program.LowerBound are
// semantics.lock roots because the store keeps their values as bound
// records under keys this string prefixes, and searches prune probes by
// them. A change that can move a bound must bump the version like a
// change that can move a Result, so no stale bound outlives it.
//
// Not bumped either for the split's jump record (split.go): the AU
// pass records its one jump as a stretch whose times auTime resolves
// instead of writing every jumped op's times, the DU pass prepares its
// ops and reads their AU inputs as it dispatches them instead of all up
// front, and extRepeats steps a replay's input from the one before it
// inside the AU's jump. Nor for the DU jump's input condition taking an
// input ready at its op's dispatch, rather than by the orbit's first
// cycle, as one that needs only to be ready at the replay's: such an op
// schedules no delivery, so its input time never reaches the state,
// and jumps stay exact. No Result moves: TestSplitMatchesReference
// (with its jump-record cases), FuzzDecoupledSplit,
// TestOrbitSkipCatalog, points.lock and results.lock are unchanged.
//
// Not bumped either for deleting the never-set Params fields AUWindow,
// DUWindow, FPLat, the dispatch width and the RetireAuto name: every point
// keeps its engine config, so no Result or bound moves. The store keys
// lose auw=, duw=, fp= and dpw=, so old stores read cold once.
//
// Not bumped either for building programs in place (ProgramBuilder
// writes each op straight into the slabs, and Program keeps no []Op),
// for deleting the core's dispatch width, which nothing set, so every
// core dispatches IssueWidth ops a cycle as it did, nor for issuing
// every core from the ready bitmap, which pops ready ops oldest-first
// at any width as the wide cores' sorted or unordered list did. The
// lower bound clamps its dispatch distance to where the term can bind,
// which moves no bound. ReferenceRun, ReferenceLowerBound, the fuzzers,
// results.lock and points.lock are unchanged.
const Version = "engine-v4"
