// Package workloads provides the seven synthetic kernels standing in for
// the PERFECT club programs used by the paper (TRFD, ADM, FLO52Q, DYFESM,
// QCD, MDG, TRACK), plus generated workloads: any name of the form
// "spec:depth=8,ilp=4,..." resolves through internal/workgen to a
// parameterized kernel, making the whole generator space sweepable
// wherever a workload name travels (experiments, the daemon wire
// protocol, the persistent cache — whose keys fingerprint workload
// content, not names).
//
// The original Fortran benchmarks and the authors' tracing toolchain are
// not available; per DESIGN.md §2 each program is replaced by a dataflow
// kernel that models its published character along the axes the study is
// sensitive to:
//
//   - instruction-class mix (address work vs FP work vs memory refs),
//   - shape of the address slice (affine streams, index-load gathers,
//     data-dependent addresses),
//   - FP dependence-chain depth and loop-carried recurrences,
//   - cross-slice dependencies (DU→AU, the loss-of-decoupling hazard),
//   - outer-loop parallelism available to large windows.
//
// The calibration targets are the paper's three latency-hiding bands at
// MD=60 with unlimited windows (highly: TRFD, ADM, FLO52Q; moderately:
// DYFESM, QCD, MDG; poorly: TRACK), the MD=0 crossover between DM and
// SWSM at a few tens of window slots, and the shapes of Figures 4-9.
package workloads

import (
	"fmt"
	"strings"

	"daesim/internal/kernel"
	"daesim/internal/trace"
	"daesim/internal/workgen"
)

// Band classifies latency-hiding effectiveness per the paper's Table 1.
type Band uint8

const (
	// Highly effective: LHE >= 0.9 at unlimited window, MD=60.
	Highly Band = iota
	// Moderately effective: 0.55 <= LHE < 0.9.
	Moderately
	// Poorly effective: LHE < 0.55.
	Poorly
)

func (b Band) String() string {
	switch b {
	case Highly:
		return "highly"
	case Moderately:
		return "moderately"
	case Poorly:
		return "poorly"
	default:
		return fmt.Sprintf("band(%d)", uint8(b))
	}
}

// Spec describes one workload.
type Spec struct {
	// Name is the benchmark name used by the paper.
	Name string
	// Description summarizes the structural model.
	Description string
	// Band is the paper's latency-hiding band for the program.
	Band Band
	// Build constructs the trace at the given scale (1 = default size).
	Build func(scale int) *trace.Trace
	// CheckScale, when set, refuses a scale too large to build.
	CheckScale func(scale int) error
}

// catalog is ordered as in the paper's Table 1.
var catalog = []Spec{
	{
		Name: "TRFD",
		Description: "two-electron integral transformation: dense blocked " +
			"dot products with affine streams and interleaved accumulators",
		Band:  Highly,
		Build: TRFD,
	},
	{
		Name: "ADM",
		Description: "pseudospectral air-quality model: independent line " +
			"sweeps with a first-order carried smoothing recurrence",
		Band:  Highly,
		Build: ADM,
	},
	{
		Name: "FLO52Q",
		Description: "transonic-flow Euler solver: 2-D stencil flux updates, " +
			"memory-dense and highly parallel across cells",
		Band:  Highly,
		Build: FLO52Q,
	},
	{
		Name: "DYFESM",
		Description: "structural-dynamics FEM: index-load gathers and " +
			"scatters around dense element updates",
		Band:  Moderately,
		Build: DYFESM,
	},
	{
		Name: "QCD",
		Description: "lattice gauge theory: deep multiply-chain link updates " +
			"with staggered neighbour gathers",
		Band:  Moderately,
		Build: QCD,
	},
	{
		Name: "MDG",
		Description: "molecular dynamics of water: neighbour-list walks with " +
			"chained index loads and carried force accumulation",
		Band:  Moderately,
		Build: MDG,
	},
	{
		Name: "TRACK",
		Description: "missile tracking: serial per-track state recurrences " +
			"with data-dependent measurement gathers (loss of decoupling)",
		Band:  Poorly,
		Build: TRACK,
	},
}

// Catalog returns all workload specs in the paper's Table 1 order.
func Catalog() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	return out
}

// Names returns the workload names in Table 1 order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, s := range catalog {
		names[i] = s.Name
	}
	return names
}

// FigureNames returns the three programs the paper plots in Figures 4-9.
func FigureNames() []string { return []string{"FLO52Q", "MDG", "TRACK"} }

// Lookup returns the spec for a workload name. Names carrying the
// "spec:" prefix are generated workloads: the suffix is a workgen spec
// (e.g. "spec:depth=8,ilp=4,mem=0.4,addr=gather"), parsed and
// canonicalized here, so every spelling of a spec resolves to one
// workload identity. The unknown-name error enumerates the catalog in
// Names() order — the same order repro -list prints and the daemon's
// /v1/batch/run validation errors surface — so every user-facing enumeration
// of the registry agrees.
func Lookup(name string) (Spec, error) {
	if rest, ok := strings.CutPrefix(name, workgen.Prefix); ok {
		gs, err := workgen.Parse(rest)
		if err != nil {
			return Spec{}, fmt.Errorf("workloads: bad generated workload %q: %w", name, err)
		}
		return Spec{
			Name:        gs.Name(),
			Description: "generated workload (internal/workgen)",
			Band:        generatedBand(gs),
			Build:       gs.Generate,
			CheckScale:  gs.CheckScale,
		}, nil
	}
	for _, s := range catalog {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q (known: %v, or %sdepth=...,ilp=...; see internal/workgen)",
		name, Names(), workgen.Prefix)
}

// generatedBand predicts a generated spec's latency-hiding band from
// the knobs that drive the paper's taxonomy: DU→AU hazards put memory
// latency on the critical path (TRACK's failure mode), and
// data-dependent chases serialize the address slice (the self-load
// story of the moderate band). The prediction is advisory — a label for
// listings, not a measurement.
func generatedBand(gs workgen.Spec) Band {
	switch {
	case gs.Hazard > 0.3:
		return Poorly
	case gs.Hazard > 0 || gs.Addr == workgen.Chase || gs.Addr == workgen.Mixed:
		return Moderately
	default:
		return Highly
	}
}

// Build constructs the named workload trace at the given scale.
func Build(name string, scale int) (*trace.Trace, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	scale = max(scale, 1)
	if s.CheckScale != nil {
		if err := s.CheckScale(scale); err != nil {
			return nil, fmt.Errorf("workloads: %s: %w", s.Name, err)
		}
	}
	return s.Build(scale), nil
}

// TRFD models the two-electron integral transformation: nests of dense
// dot products. Structure per outer block: a run of inner steps each
// loading two operands from affine streams, multiplying, and adding into
// one of four interleaved accumulators; the block ends by reducing the
// accumulators and storing one result. Addresses depend only on the block
// base, so the address slice decouples perfectly; the four accumulators
// keep the carried FP chains off the critical path. Band: highly.
func TRFD(scale int) *trace.Trace {
	b := kernel.New("TRFD")
	const inner = 24
	outer := 480 * scale
	a := b.Array("A", outer*inner, 8)
	c := b.Array("B", outer*inner, 8)
	out := b.Array("C", outer, 8)
	for o := 0; o < outer; o++ {
		base := b.Int() // block base address
		var acc [4]kernel.Val
		for i := 0; i < inner; i++ {
			ia := b.Int(base)
			av := b.Load(a, o*inner+i, ia)
			ib := b.Int(base)
			bv := b.Load(c, o*inner+i, ib)
			p := b.FP(av, bv)
			k := i % len(acc)
			if acc[k].Valid() {
				acc[k] = b.FP(p, acc[k])
			} else {
				acc[k] = p
			}
		}
		r1 := b.FP(acc[0], acc[1])
		r2 := b.FP(acc[2], acc[3])
		r := b.FP(r1, r2)
		b.Store(out, o, r, base)
	}
	return b.MustTrace()
}

// ADM models the pseudospectral air-quality model: many independent line
// sweeps, each with a first-order carried smoothing recurrence. The loads
// are affine and independent of the recurrence, so the AU decouples
// fully; the DU is chain-bound within a line, and the trace interleaves a
// small batch of lines step by step — the schedule a software-pipelining
// Fortran compiler produces for independent inner loops — so program
// order carries fine-grained parallelism past the recurrence (the paper's
// machines both assume compiler-scheduled code; a reorder-buffer SWSM is
// throttled by program-order residency, so naive source order would
// misrepresent the traces the paper measured). Band: highly.
func ADM(scale int) *trace.Trace {
	b := kernel.New("ADM")
	const n = 32
	const batch = 4 // lines interleaved by the compiler's schedule
	lines := 320 * scale
	x := b.Array("X", lines*n, 8)
	y := b.Array("Y", lines*n, 8)
	for l0 := 0; l0 < lines; l0 += batch {
		var base, carry [batch]kernel.Val
		for k := 0; k < batch; k++ {
			base[k] = b.Int()
			carry[k] = b.FP(b.Load(x, (l0+k)*n, base[k]))
		}
		for i := 1; i < n; i++ {
			for k := 0; k < batch; k++ {
				idx := b.Int(base[k])
				v := b.Load(x, (l0+k)*n+i, idx)
				carry[k] = b.FP(v, carry[k])
				st := b.Int(base[k])
				b.Store(y, (l0+k)*n+i, carry[k], st)
			}
		}
	}
	return b.MustTrace()
}

// FLO52Q models the transonic-flow Euler solver: a 2-D stencil flux
// update, memory-dense (five loads and two stores per cell) with a short
// flux DAG and a row recurrence reset every few cells. Cells are
// massively parallel, which makes it the paper's showcase for decoupled
// prefetching: the AU streams whole rows ahead while the SWSM's single
// window clogs with waiting accesses. A sparse serialized walk of the
// multigrid patch table (one chased index load per 24 cells) keeps a
// bounded amount of memory latency on the critical path, placing the
// program at the low edge of the highly-effective band.
func FLO52Q(scale int) *trace.Trace {
	b := kernel.New("FLO52Q")
	const cols = 64
	const spinePeriod = 20
	rows := 56 * scale
	w := b.Array("W", rows*cols+2*cols+2, 8)
	fl := b.Array("F", rows*cols, 8)
	res := b.Array("R", rows*cols, 8)
	patch := b.Array("PATCH", rows*cols/spinePeriod+2, 8)
	cursor := b.Int() // serialized patch-table cursor
	cells := 0
	for r := 0; r < rows; r++ {
		base := b.Int(cursor)
		var carry kernel.Val
		for cc := 0; cc < cols; cc++ {
			if cells%spinePeriod == 0 {
				pv := b.Load(patch, cells/spinePeriod, cursor)
				cursor = b.Int(pv)
				base = b.Int(cursor)
			}
			cells++
			cell := r*cols + cc
			// Mapped-coordinate metric arithmetic: FLO52 works on a
			// curvilinear grid, so each cell's addresses need extra
			// integer work beyond simple induction. The metric terms for
			// the two directions are independent of each other.
			m1 := b.Int(base)
			m2 := b.Int(base)
			i1 := b.Int(base)
			i2 := b.Int(base)
			west := b.Load(w, cell, i1)
			east := b.Load(w, cell+1, i1)
			north := b.Load(w, cell+cols, i2)
			south := b.Load(w, cell+2*cols, i2)
			center := b.Load(w, cell+cols+1, i2)
			// The flux DAG is wide: the two direction fluxes join for the
			// stored flux; the centre term folds into the row residual,
			// not the flux path.
			f1 := b.FP(west, east)
			f2 := b.FP(north, south)
			f4 := b.FP(f1, f2)
			fc := b.FP(center)
			if cc%2 != 0 && carry.Valid() {
				carry = b.FP(f4, carry)
			} else {
				carry = b.FP(f4, fc)
			}
			b.Store(fl, cell, f4, m1)
			b.Store(res, cell, carry, m2)
		}
	}
	return b.MustTrace()
}

// DYFESM models the structural-dynamics FEM code: per element, an index
// load (an AU self-load) feeds three gathered operand loads, a dense
// element update of depth five, and a scatter store through the same
// index. The self-loads put memory latency on the AU's own critical
// path, bounding slip and lowering the latency-hiding band to moderate.
func DYFESM(scale int) *trace.Trace {
	b := kernel.New("DYFESM")
	const spinePeriod = 72
	elements := 2600 * scale
	front := b.Array("FRONT", elements/spinePeriod+2, 8)
	idx := b.Array("IDX", elements, 8)
	xv := b.Array("X", 4*elements, 8)
	fv := b.Array("Fout", 4*elements, 8)
	cursor := b.Int() // serialized frontal-solver cursor
	for e := 0; e < elements; e++ {
		if e%spinePeriod == 0 {
			fvv := b.Load(front, e/spinePeriod, cursor)
			cursor = b.Int(fvv) // next front depends on this front's table entry
		}
		eb := b.Int(cursor)
		ix := b.Load(idx, e, eb) // element connectivity (self-load)
		a1 := b.Int(ix)
		x1 := b.Load(xv, (e*3)%(4*elements), eb)
		x2 := b.Load(xv, (e*3+1)%(4*elements), eb)
		x3 := b.Load(xv, (e*3+2)%(4*elements), a1) // gathered operand
		g1 := b.FP(x1, x2)
		g2 := b.FP(x3, g1)
		g3 := b.FP(g2)
		g4 := b.FP(g3, g1)
		g5 := b.FP(g4)
		sc := b.Int(ix)
		b.Store(fv, (e*3)%(4*elements), g5, sc)
	}
	return b.MustTrace()
}

// QCD models the lattice-gauge Monte Carlo code: per site, a staggered
// neighbour gather (an index load shared by each 4-site block) and a wide
// link update (eight FP ops in parallel depth-3 rows, standing in for
// SU(3) matrix arithmetic — nine short dot products, wide rather than
// chained), with running products split into two alternating partials per
// block. The trace interleaves block pairs site by site — the schedule a
// software-pipelining compiler produces for independent blocks (see ADM).
// Periodic self-loads keep it moderately effective.
func QCD(scale int) *trace.Trace {
	b := kernel.New("QCD")
	const spinePeriod = 32
	const batch = 2 // 4-site blocks interleaved by the compiler's schedule
	sites := 1400 * scale
	ord := b.Array("ORD", sites/spinePeriod+2, 8)
	nbr := b.Array("NBR", sites, 8)
	u := b.Array("U", 4*sites, 8)
	out := b.Array("V", sites, 8)
	cursor := b.Int() // serialized sweep-ordering cursor
	for s0 := 0; s0 < sites; s0 += 4 * batch {
		if s0%spinePeriod == 0 {
			ov := b.Load(ord, s0/spinePeriod, cursor)
			cursor = b.Int(ov) // staggered sweep order chains through the table
		}
		var base, ix [batch]kernel.Val
		var carry [batch][2]kernel.Val
		for k := 0; k < batch; k++ {
			base[k] = b.Int(cursor)
			ix[k] = b.Load(nbr, s0+4*k, base[k]) // staggered neighbour index (self-load)
		}
		for j := 0; j < 4; j++ {
			for k := 0; k < batch; k++ {
				s := s0 + 4*k + j
				a1 := b.Int(ix[k], base[k])
				a2 := b.Int(ix[k], base[k])
				l1 := b.Load(u, (4*s)%(4*sites), a1)
				l2 := b.Load(u, (4*s+1)%(4*sites), a2)
				l3 := b.Load(u, (4*s+2)%(4*sites), a1)
				l4 := b.Load(u, (4*s+3)%(4*sites), a2)
				m1 := b.FP(l1, l2)
				m2 := b.FP(l3, l4)
				m3 := b.FP(l1, l3)
				m4 := b.FP(l2, l4)
				h1 := b.FP(m1, m2)
				h2 := b.FP(m3, m4)
				h := b.FP(h1, h2)
				// Alternating running partials (real and imaginary parts).
				p := j % 2
				if carry[k][p].Valid() {
					carry[k][p] = b.FP(h1, carry[k][p])
				} else {
					carry[k][p] = h1
				}
				if j == 3 {
					b.Store(out, s, b.FP(carry[k][0], carry[k][1]), base[k])
				} else {
					b.Store(out, s, h, base[k])
				}
			}
		}
	}
	return b.MustTrace()
}

// MDG models the molecular-dynamics water code: per molecule, a walk of
// its neighbour list (one index self-load per neighbour, three coordinate
// gathers through per-coordinate wrap terms), a shallow wide force DAG
// (pairwise terms combine in parallel, as the real code's unrolled inner
// loop schedules them) feeding two interleaved carried partial sums;
// every tenth molecule the linked-cell list cursor chases through
// memory, serializing a slice of the address stream. The trace
// interleaves molecule pairs neighbour by neighbour — the schedule a
// software-pipelining compiler produces for independent outer iterations
// — so program order carries the cross-molecule parallelism (see ADM).
// Band: moderately (lowest of the band).
func MDG(scale int) *trace.Trace {
	b := kernel.New("MDG")
	const neighbors = 6
	const spinePeriod = 10 // molecules per linked-cell chase
	const batch = 4        // molecules interleaved by the compiler's schedule
	mols := 340 * scale
	cellList := b.Array("CELL", mols/spinePeriod+2, 8)
	nbr := b.Array("NBR", mols*neighbors, 8)
	xyz := b.Array("XYZ", 3*mols*neighbors, 8)
	f := b.Array("F", 3*mols, 8)
	cursor := b.Int() // linked-cell list cursor
	for m0 := 0; m0 < mols; m0 += batch {
		var mb [batch]kernel.Val
		var acc [batch][2]kernel.Val
		for k := 0; k < batch; k++ {
			m := m0 + k
			if m%spinePeriod == 0 {
				cv := b.Load(cellList, m/spinePeriod, cursor)
				cursor = b.Int(cv) // next cell depends on this cell's entry
			}
			mb[k] = b.Int(cursor)
		}
		for n := 0; n < neighbors; n++ {
			for k := 0; k < batch; k++ {
				m := m0 + k
				ix := b.Load(nbr, m*neighbors+n, mb[k]) // neighbour index (self-load)
				// Periodic-image wrap arithmetic on the neighbour index:
				// each coordinate wraps through its own independent term
				// (the real code wraps x, y and z separately).
				iw := b.Int(ix)
				iw2 := b.Int(ix)
				ia := b.Int(ix)
				c1 := b.Load(xyz, (3*(m*neighbors+n))%(3*mols*neighbors), ia)
				c2 := b.Load(xyz, (3*(m*neighbors+n)+1)%(3*mols*neighbors), iw)
				c3 := b.Load(xyz, (3*(m*neighbors+n)+2)%(3*mols*neighbors), iw2)
				// Shallow force DAG (the real code's pairwise terms are
				// wide, not chained) feeding two interleaved partial sums.
				d1 := b.FP(c1, c2)
				d2 := b.FP(c3)
				d4 := b.FP(d1, d2)
				a := n % 2
				if acc[k][a].Valid() {
					acc[k][a] = b.FP(d4, acc[k][a])
				} else {
					acc[k][a] = b.FP(d4)
				}
			}
		}
		for k := 0; k < batch; k++ {
			st := b.Int(mb[k])
			b.Store(f, (3*(m0+k))%(3*mols), b.FP(acc[k][0], acc[k][1]), st)
		}
	}
	return b.MustTrace()
}

// TRACK models the missile-tracking code: a small set of tracks, each a
// long serial state recurrence. Every third step gates the next
// measurement address on the floating-point state (a DU→AU dependence —
// the loss-of-decoupling hazard), so memory latency lands on the critical
// path and cannot be hidden; the other steps fetch along the predicted
// (affine) path. Little parallelism exists beyond the track count.
// Band: poorly.
func TRACK(scale int) *trace.Trace {
	b := kernel.New("TRACK")
	const tracks = 14
	steps := 340 * scale
	meas := b.Array("MEAS", tracks*steps, 8)
	hist := b.Array("HIST", tracks*steps, 8)
	type trackState struct {
		state kernel.Val
		gate  kernel.Val
	}
	st := make([]trackState, tracks)
	for tIdx := range st {
		st[tIdx].state = b.FP()
		st[tIdx].gate = b.Int()
	}
	// Interleave the tracks step by step, as the real code sweeps all
	// active tracks each radar frame.
	for s := 0; s < steps; s++ {
		for tr := 0; tr < tracks; tr++ {
			ts := &st[tr]
			if s%3 == 0 {
				// Gate recomputed from the FP state: loss of decoupling.
				ts.gate = b.Int(ts.state)
			} else {
				ts.gate = b.Int(ts.gate)
			}
			m := b.Load(meas, tr*steps+s, ts.gate)
			ts.state = b.FPChain(3, m, ts.state)
			if s%8 == 0 {
				b.Store(hist, tr*steps+s, ts.state, ts.gate)
			}
		}
	}
	return b.MustTrace()
}
