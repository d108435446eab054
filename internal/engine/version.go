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
const Version = "engine-v4"
