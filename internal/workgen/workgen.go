// Package workgen generates parameterized synthetic workloads. A Spec's
// knobs are the calibration dimensions the seven hand-built kernels in
// internal/workloads were tuned along (DESIGN.md §2): FP dependence-chain
// depth, ILP width (how many independent iteration streams the compiled
// schedule interleaves), memory intensity (refs per FP op), the shape of
// the address slice (affine streams, index-load gathers, data-dependent
// chases, or a seed-chosen mix), and the rate of cross-slice DU→AU
// hazards (the paper's loss-of-decoupling events). Sweeping a Spec spans
// the workload space between the paper's bands instead of sampling it at
// seven points.
//
// Specs have a small text form in the style of faultinject's -chaos
// grammar — comma-separated key=value fields, e.g.
//
//	depth=8,ilp=4,mem=0.4,addr=gather,hazard=0.1,iters=256,seed=7
//
// parsed by Parse and emitted canonically by Format (Parse∘Format is the
// identity). Generate emits a trace.Trace that is a pure function of
// (Spec, scale): structural decisions — which address shape a load slot
// takes, which steps suffer a hazard — are coordinate-hashed from the
// seed (splitmix64 over (seed, lane, step, slot), the faultinject
// pattern), so changing one knob never reshuffles the structure chosen
// by the others; the seeded *rand.Rand only jitters memory addresses,
// which the fixed-differential model ignores but locality-aware models
// and the trace encoding observe. That split is what makes the knob
// monotonicity properties (deeper chains never shorten the critical
// path, more memory intensity never lowers ref density) structural
// rather than statistical. The package is in daelint's determinism
// scope.
package workgen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"daesim/internal/kernel"
	"daesim/internal/trace"
)

// Prefix marks a generated workload name: "spec:" followed by the spec
// text. internal/workloads routes such names through Parse/Generate.
const Prefix = "spec:"

// Shape selects the address-slice structure of generated load slots.
type Shape uint8

const (
	// Affine slots compute the address from the lane's induction value
	// alone — the fully decoupled streams of TRFD/ADM.
	Affine Shape = iota
	// Gather slots load an index first and address the data load through
	// it — DYFESM's connectivity gathers (the index load is an AU
	// self-load).
	Gather
	// Chase slots address each load through the previously loaded value —
	// MDG's linked-cell walks; memory latency lands on the address slice
	// itself.
	Chase
	// Mixed draws each slot's shape from the seed (coordinate-hashed, so
	// a slot's shape is stable under changes to every other knob).
	Mixed
)

// shapeNames maps spec tokens to shapes; String and Parse share it so
// the grammar and the output agree.
var shapeNames = []struct {
	shape Shape
	name  string
}{
	{Affine, "affine"},
	{Gather, "gather"},
	{Chase, "chase"},
	{Mixed, "mixed"},
}

func (s Shape) String() string {
	for _, sn := range shapeNames {
		if sn.shape == s {
			return sn.name
		}
	}
	return "shape(" + strconv.Itoa(int(s)) + ")"
}

func parseShape(s string) (Shape, bool) {
	for _, sn := range shapeNames {
		if sn.name == s {
			return sn.shape, true
		}
	}
	return Affine, false
}

// Spec parameterizes one generated workload. The zero value is not
// valid; start from Default.
type Spec struct {
	// Depth is the FP dependence-chain length per iteration step: every
	// (lane, step) appends exactly Depth chained FP ops to the lane's
	// carried recurrence. [1, 64].
	Depth int
	// ILP is the number of independent lanes the trace interleaves
	// step-major — the outer-loop parallelism a software-pipelining
	// compiler exposes in program order. [1, 64].
	ILP int
	// Mem is the memory intensity: round(Mem·Depth) data loads feed each
	// step's FP chain. [0, 4] refs per FP op.
	Mem float64
	// Addr is the address-slice shape of the load slots.
	Addr Shape
	// Hazard is the per-(lane, step) probability that the lane's address
	// induction consumes its FP state — a DU→AU dependence, the paper's
	// loss-of-decoupling hazard. [0, 1].
	Hazard float64
	// Iters is the number of steps per lane at scale 1. [1, 65536].
	Iters int
	// Seed decorrelates structural draws (mixed shapes, hazard
	// placement) and address jitter between otherwise identical specs.
	Seed uint64
}

// Default returns the spec all omitted fields parse to: a shallow
// affine kernel in the calibration mid-range.
func Default() Spec {
	return Spec{Depth: 4, ILP: 4, Mem: 1, Addr: Affine, Hazard: 0, Iters: 256, Seed: 1}
}

// specFields lists the grammar's field names in canonical order; Parse
// error messages and Format share it.
var specFields = []string{"depth", "ilp", "mem", "addr", "hazard", "iters", "seed"}

// Parse parses the comma-separated key=value spec grammar. Omitted
// fields take their Default values; unknown, duplicate and malformed
// fields are rejected with errors naming the field.
func Parse(s string) (Spec, error) {
	spec := Default()
	seen := map[string]bool{}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, found := strings.Cut(field, "=")
		if !found {
			return Spec{}, fmt.Errorf("workgen: bad field %q (want key=value)", field)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("workgen: duplicate field %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "depth":
			spec.Depth, err = strconv.Atoi(val)
		case "ilp":
			spec.ILP, err = strconv.Atoi(val)
		case "mem":
			spec.Mem, err = strconv.ParseFloat(val, 64)
		case "addr":
			sh, ok := parseShape(val)
			if !ok {
				return Spec{}, fmt.Errorf("workgen: bad addr %q (want affine, gather, chase or mixed)", val)
			}
			spec.Addr = sh
		case "hazard":
			spec.Hazard, err = strconv.ParseFloat(val, 64)
		case "iters":
			spec.Iters, err = strconv.Atoi(val)
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return Spec{}, fmt.Errorf("workgen: unknown field %q (want %s)", key, strings.Join(specFields, ", "))
		}
		if err != nil {
			return Spec{}, fmt.Errorf("workgen: bad %s %q: %w", key, val, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Format renders the spec in canonical text form: every field, in
// specFields order. Parse(s.Format()) == s for any valid spec.
func (s Spec) Format() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("depth=%d,ilp=%d,mem=%s,addr=%s,hazard=%s,iters=%d,seed=%d",
		s.Depth, s.ILP, f(s.Mem), s.Addr, f(s.Hazard), s.Iters, s.Seed)
}

// Name returns the workload-registry name of the spec: Prefix plus the
// canonical text form, so every spelling of a spec shares one name.
func (s Spec) Name() string { return Prefix + s.Format() }

// maxInstrs bounds a generated trace at any scale; Validate rejects
// specs whose worst-case emission at scale 1 exceeds it and CheckScale
// those that exceed it at a larger scale, so a fuzzer, a typo'd iters
// or a large scale cannot ask Generate for gigabytes.
const maxInstrs = 4 << 20

// Validate checks every knob's bounds, naming the offending field.
func (s Spec) Validate() error {
	switch {
	case s.Depth < 1 || s.Depth > 64:
		return fmt.Errorf("workgen: depth %d out of range [1, 64]", s.Depth)
	case s.ILP < 1 || s.ILP > 64:
		return fmt.Errorf("workgen: ilp %d out of range [1, 64]", s.ILP)
	case math.IsNaN(s.Mem) || s.Mem < 0 || s.Mem > 4:
		return fmt.Errorf("workgen: mem %v out of range [0, 4]", s.Mem)
	case math.IsNaN(s.Hazard) || s.Hazard < 0 || s.Hazard > 1:
		return fmt.Errorf("workgen: hazard %v out of range [0, 1]", s.Hazard)
	case s.Iters < 1 || s.Iters > 65536:
		return fmt.Errorf("workgen: iters %d out of range [1, 65536]", s.Iters)
	}
	if sh := s.Addr; sh != Affine && sh != Gather && sh != Chase && sh != Mixed {
		return fmt.Errorf("workgen: addr %v is not a known shape", sh)
	}
	return s.CheckScale(1)
}

// CheckScale refuses a scale at which the spec's worst-case emission
// exceeds the cap; Generate multiplies Iters by the scale.
func (s Spec) CheckScale(scale int) error {
	scale = max(scale, 1)
	// Worst-case emission: per (lane, step) one induction op, four ops
	// per gather slot, the Depth-long chain and a store pair.
	perStep := 3 + 4*s.loadsPerStep() + s.Depth
	if n := s.ILP * s.Iters * perStep; n > maxInstrs/scale {
		return fmt.Errorf("workgen: spec emits ~%d instructions at scale %d (cap %d); lower iters, ilp, depth or mem", n*scale, scale, maxInstrs)
	}
	return nil
}

// loadsPerStep is the number of data loads feeding each step's chain.
// math.Round keeps it monotone in both Mem and Depth.
func (s Spec) loadsPerStep() int {
	return int(math.Round(s.Mem * float64(s.Depth)))
}

// Salts decorrelating the structural draw families from each other.
const (
	hazardSalt = 0x68617a61 // "haza"
	shapeSalt  = 0x73686170 // "shap"
)

// hazardAt decides whether lane l's step-th address induction consumes
// the FP state. Pure function of (seed, lane, step): thresholding the
// same draw means raising Hazard only ever adds hazard events.
func (s Spec) hazardAt(l, step int) bool {
	return unit(mix(s.Seed^hazardSalt, uint64(l), uint64(step), 0)) < s.Hazard
}

// shapeAt picks the slot's address shape; fixed shapes ignore the
// coordinates, Mixed hashes them so a slot's shape survives changes to
// every other knob (including the knobs that add or remove slots after
// it).
func (s Spec) shapeAt(l, step, slot int) Shape {
	if s.Addr != Mixed {
		return s.Addr
	}
	return Shape(mix(s.Seed^shapeSalt, uint64(l), uint64(step), uint64(slot)) % 3)
}

// storePeriod is the per-lane step interval between result stores.
const storePeriod = 4

// Generate emits the spec's trace at the given scale (scale multiplies
// Iters; values below 1 are clamped to 1). The result is a pure
// function of (Spec, scale): same spec and scale, byte-identical trace.
func (s Spec) Generate(scale int) *trace.Trace {
	iters := s.Iters * max(scale, 1)
	loads := s.loadsPerStep()
	// The rng only jitters which array element each memory ref touches;
	// trace structure never consumes it (see the package comment).
	rng := rand.New(rand.NewSource(int64(s.Seed)))
	const elems = 4096
	b := kernel.New(s.Name())
	data := b.Array("DATA", elems, 8)
	index := b.Array("IDX", elems, 8)
	out := b.Array("OUT", elems, 8)
	jitter := func() int { return rng.Intn(elems) }

	// Per-lane carried state: an integer address induction (base), the FP
	// recurrence (carry) and the chase pointer (last chased value).
	type laneState struct {
		base  kernel.Val
		carry kernel.Val
		ptr   kernel.Val
	}
	lanes := make([]laneState, s.ILP)
	for l := range lanes {
		lanes[l].base = b.Int()
		lanes[l].carry = b.FP()
		lanes[l].ptr = lanes[l].base
	}

	// Step-major interleave across lanes: program order carries the
	// cross-lane parallelism, as a software-pipelining compiler schedules
	// independent outer iterations (the ADM/QCD idiom in workloads).
	for step := 0; step < iters; step++ {
		for l := range lanes {
			ln := &lanes[l]
			if s.hazardAt(l, step) {
				// Loss of decoupling: the address induction consumes the
				// FP state, chaining the AU behind the DU.
				ln.base = b.Int(ln.carry)
			} else {
				ln.base = b.Int(ln.base)
			}
			vals := make([]kernel.Val, 0, loads)
			for slot := 0; slot < loads; slot++ {
				switch s.shapeAt(l, step, slot) {
				case Affine:
					a := b.Int(ln.base)
					vals = append(vals, b.Load(data, jitter(), a))
				case Gather:
					ia := b.Int(ln.base)
					iv := b.Load(index, jitter(), ia)
					a := b.Int(iv)
					vals = append(vals, b.Load(data, jitter(), a))
				case Chase:
					a := b.Int(ln.ptr)
					v := b.Load(data, jitter(), a)
					ln.ptr = b.Int(v)
					vals = append(vals, v)
				}
			}
			// Exactly Depth chained FP ops per step, the loads feeding the
			// chain round-robin so no op exceeds the operand-count limits.
			carry := ln.carry
			for d := 0; d < s.Depth; d++ {
				args := []kernel.Val{carry}
				for vi := d; vi < len(vals); vi += s.Depth {
					args = append(args, vals[vi])
				}
				carry = b.FP(args...)
			}
			ln.carry = carry
			if step%storePeriod == storePeriod-1 {
				st := b.Int(ln.base)
				b.Store(out, jitter(), ln.carry, st)
			}
		}
	}
	// Each lane's recurrence ends in a store, so every spec (even one
	// with mem=0 and few iters) has seed-jittered memory refs.
	for l := range lanes {
		st := b.Int(lanes[l].base)
		b.Store(out, jitter(), lanes[l].carry, st)
	}
	return b.MustTrace()
}

// mix folds the coordinates through splitmix64 (the faultinject
// pattern): a fast, well-mixed hash that is a pure function of its
// inputs.
func mix(a, b, c, d uint64) uint64 {
	x := a
	for _, v := range [...]uint64{b, c, d} {
		x += 0x9e3779b97f4a7c15 + v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// unit maps a hash to [0,1) using its top 53 bits.
func unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}
