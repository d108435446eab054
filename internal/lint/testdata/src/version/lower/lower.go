// Package lower is the second versionkey fixture: a lowering with its
// own version constant whose surface reaches into the engine package's
// program constructor.
package lower

import "version/engine"

// Version tags the output of Lower.
const Version = "lower-v1"

// Lower is the lowering root.
func Lower(n int) engine.Program {
	ops := make([]engine.Op, n)
	return engine.NewProgram(ops)
}
