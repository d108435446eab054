package lower

// Version tags the lowerings' output for persistent result caches. A
// suite's store key (machine.Suite.Fingerprint) names what goes into
// lowering — this version, the trace and the partition assignment —
// rather than hashing the lowered programs, so any change to DM or SWSM
// that can emit different programs for the same trace and assignment
// must bump this string. lower.lock pins the lowering surface to it
// (daelint's versionkey analyzer), and machine's lowering guard test
// fails when the lowered content of a checked-in workload changes while
// its key does not.
//
// History:
//
//	v1 — store keys name the lowering inputs instead of hashing the
//	     lowered programs
//
// Not bumped for writing each op straight into the engine's slabs
// (engine.ProgramBuilder) instead of collecting an []engine.Op first:
// the programs are the same, and TestLoweringGuard's manifest is
// unchanged.
//
// Not bumped for deleting the count-only walks (Stats, Count, Recount):
// DM sizes its builder with a counting walk of its own and SWSM from the
// trace's instruction classes, the programs are the same, and
// TestLoweringGuard's manifest is unchanged.
//
// Not bumped for reading the trace through its accessors once it became
// slabs (trace.Trace's Class, Addr, Args, Operands and MemAddr), which
// also makes the Stats that sizes SWSM a walk over the class slab alone:
// each walk reads the same operands in the same order, the programs are
// the same, and TestLoweringGuard's manifest is unchanged.
const Version = "lower-v1"
