package memsys

import (
	"fmt"
	"strconv"
	"strings"
)

// SpecKind names the memory model a Spec describes.
type SpecKind uint8

const (
	// NoModel is the paper's fixed differential; the machine applies its
	// own outstanding-fill bound (machine.Params.MemQueue).
	NoModel SpecKind = iota
	// BypassModel is a Bypass buffer of Spec.Lines lines.
	BypassModel
	// CacheModel is a Hierarchy of Spec.Levels.
	CacheModel
)

// Geometry bounds. A spec is untrusted input (it crosses the sweepd
// wire), and a Hierarchy allocates its sets up front, so sizes beyond
// these are rejected rather than allocated. Each is far above any
// configuration the studies use.
const (
	// MaxLevels is the deepest cache hierarchy a Spec can describe.
	MaxLevels = 3
	// MaxSets bounds one cache level's sets.
	MaxSets = 1 << 16
	// MaxWays bounds one cache level's associativity.
	MaxWays = 64
	// MaxBypassLines bounds a bypass buffer's capacity.
	MaxBypassLines = 1 << 20
)

// Spec describes a memory model as a plain comparable value, so a point
// that uses one has a cache key and a wire form like any other
// parameter. The zero Spec is NoModel. Build the model a spec describes
// with NewBypass or NewHierarchy(md, s.CacheLevels()...); every run
// builds a fresh one, so a spec's results are a pure function of it.
type Spec struct {
	Kind SpecKind
	// Lines is a bypass buffer's capacity in lines (BypassModel only).
	Lines int
	// Levels are a cache hierarchy's levels from L1 outward (CacheModel
	// only); the first zero level ends the list.
	Levels [MaxLevels]CacheLevel
}

// BypassSpec describes a bypass buffer of the given capacity.
func BypassSpec(lines int) (Spec, error) {
	s := Spec{Kind: BypassModel, Lines: lines}
	return s, s.Validate()
}

// CacheSpec describes a cache hierarchy ordered from L1 outward.
func CacheSpec(levels ...CacheLevel) (Spec, error) {
	if len(levels) > MaxLevels {
		return Spec{}, fmt.Errorf("memsys: %d cache levels, at most %d", len(levels), MaxLevels)
	}
	s := Spec{Kind: CacheModel}
	copy(s.Levels[:], levels)
	return s, s.Validate()
}

// DefaultCacheSpec describes the DefaultHierarchy geometry.
func DefaultCacheSpec() Spec {
	return Spec{Kind: CacheModel, Levels: [MaxLevels]CacheLevel{defaultL1, defaultL2}}
}

// CacheLevels returns the hierarchy's levels, L1 first.
func (s Spec) CacheLevels() []CacheLevel {
	n := 0
	for n < MaxLevels && s.Levels[n] != (CacheLevel{}) {
		n++
	}
	return s.Levels[:n]
}

// Validate reports a spec that describes no buildable model.
func (s Spec) Validate() error {
	levels := s.CacheLevels()
	for _, l := range s.Levels[len(levels):] {
		if l != (CacheLevel{}) {
			return fmt.Errorf("memsys: cache levels must be contiguous from L1")
		}
	}
	switch s.Kind {
	case NoModel:
		if s.Lines != 0 || len(levels) != 0 {
			return fmt.Errorf("memsys: a spec without a model carries no geometry")
		}
	case BypassModel:
		if len(levels) != 0 {
			return fmt.Errorf("memsys: a bypass spec carries no cache levels")
		}
		return validateLines(s.Lines)
	case CacheModel:
		if s.Lines != 0 {
			return fmt.Errorf("memsys: a cache spec carries no bypass lines")
		}
		if len(levels) == 0 {
			return fmt.Errorf("memsys: hierarchy needs at least one level")
		}
		for i, l := range levels {
			if err := l.Validate(); err != nil {
				return fmt.Errorf("memsys: level %d: %w", i+1, err)
			}
		}
	default:
		return fmt.Errorf("memsys: unknown model kind %d", s.Kind)
	}
	return nil
}

// String returns the spec's canonical text form, which ParseSpec reads
// back: "none", "bypass:<lines>" or "cache:<sets>x<ways>@<hit>,..." with
// one comma-separated level per cache level, L1 first.
func (s Spec) String() string {
	switch s.Kind {
	case NoModel:
		return "none"
	case BypassModel:
		return "bypass:" + strconv.Itoa(s.Lines)
	case CacheModel:
		var b strings.Builder
		b.WriteString("cache:")
		for i, l := range s.CacheLevels() {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%dx%d@%d", l.Sets, l.Ways, l.HitLat)
		}
		return b.String()
	default:
		return fmt.Sprintf("model(%d)", s.Kind)
	}
}

// ParseSpec reads a spec's text form (see String). The empty string
// is NoModel. The result is validated.
func ParseSpec(text string) (Spec, error) {
	kind, arg, _ := strings.Cut(text, ":")
	var s Spec
	switch kind {
	case "", "none":
		if arg != "" {
			return Spec{}, fmt.Errorf("memsys: spec %q: none takes no arguments", text)
		}
		return s, nil
	case "bypass":
		lines, err := strconv.Atoi(arg)
		if err != nil {
			return Spec{}, fmt.Errorf("memsys: spec %q: bypass lines: %w", text, err)
		}
		s = Spec{Kind: BypassModel, Lines: lines}
	case "cache":
		s.Kind = CacheModel
		fields := strings.Split(arg, ",")
		if len(fields) > MaxLevels {
			return Spec{}, fmt.Errorf("memsys: spec %q: %d cache levels, at most %d", text, len(fields), MaxLevels)
		}
		for i, f := range fields {
			l, err := parseLevel(f)
			if err == nil {
				err = l.Validate()
			}
			if err != nil {
				return Spec{}, fmt.Errorf("memsys: spec %q: level %d: %w", text, i+1, err)
			}
			s.Levels[i] = l
		}
	default:
		return Spec{}, fmt.Errorf("memsys: spec %q: unknown model %q (want none, bypass, cache)", text, kind)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("memsys: spec %q: %w", text, err)
	}
	return s, nil
}

// parseLevel reads one "<sets>x<ways>@<hit>" cache level.
func parseLevel(f string) (CacheLevel, error) {
	geom, hit, ok := strings.Cut(f, "@")
	sets, ways, ok2 := strings.Cut(geom, "x")
	if !ok || !ok2 {
		return CacheLevel{}, fmt.Errorf("%q is not <sets>x<ways>@<hit latency>", f)
	}
	var l CacheLevel
	var err error
	if l.Sets, err = strconv.Atoi(sets); err != nil {
		return CacheLevel{}, err
	}
	if l.Ways, err = strconv.Atoi(ways); err != nil {
		return CacheLevel{}, err
	}
	if l.HitLat, err = strconv.ParseInt(hit, 10, 64); err != nil {
		return CacheLevel{}, err
	}
	return l, nil
}
