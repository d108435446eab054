// Package store keys its entries by the engine and lowering versions,
// satisfying the versionkey analyzer's RequireVersionUse check.
package store

import (
	"version/engine"
	"version/lower"
)

// Key builds a cache key embedding both versions.
func Key(name string) string {
	return engine.Version + "/" + lower.Version + "/" + name
}
