package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// pointsLock pins every point a cold repro -exp all simulates: its
// Cycles, its MemHits and a digest of its whole Result; and every probe
// it answers with a certified lower bound instead (sweep.Runner.Probe),
// with that bound. results.lock pins the files; this table pins the
// numbers behind them, including the ones no figure prints
// (OccIntegral, IssueHist). Rows are keyed by what a point is, never by
// its store key, so a change that moves every store key still compares
// point for point. Regenerate it, only when a change is meant to move a
// number or the set of points, with
//
//	go test ./internal/experiments -run TestPointsLock -update
const pointsLock = "../engine/points.lock"

// pointRow is one point's pinned outcome: a simulated point's, or,
// with Certified set, the lower bound that proved every probe of a
// point that was never simulated a miss (in Cycles).
type pointRow struct {
	Cycles, MemHits int64
	// Digest is the first 12 hex digits of the SHA-256 of the Result's
	// JSON encoding.
	Digest    string
	Certified bool
}

// resultDigest returns pointRow.Digest for res.
func resultDigest(res *engine.Result) string {
	// A Result is plain numbers and slices: Marshal cannot fail on it.
	data, _ := json.Marshal(res)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// pointSuite is the suite a store fingerprint names, with the workload
// and partition policy the point key records.
type pointSuite struct {
	workload string
	policy   partition.Policy
}

// boundClass ends the store key of a bound record: the result record's
// key plus the class (sweep's bound record class, Store.PutBound).
const boundClass = " class=bound"

// renderPoints renders the corpus cold into an empty store — the whole
// of repro -exp all when full, else lockSubset — and returns a row for
// every point the store then holds, keyed "workload scale policy
// cachekey": the simulated points from their result records, and the
// probes only ever answered by a certified bound from their bound
// records. A point with both was simulated at last; its result is its
// row. Every runner of the context, detached policy runners included,
// writes to the one store, so its records are exactly what a cold
// render does. Policies whose assignments coincide share a fingerprint
// and simulate identical programs; their points are keyed under the
// first such policy in partition.Policies order.
func renderPoints(t *testing.T, full bool) map[string]pointRow {
	t.Helper()
	const scale = 1
	suites := map[string]pointSuite{}
	for _, spec := range workloads.Catalog() {
		tr, err := workloads.Build(spec.Name, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range partition.Policies() {
			s, err := machine.NewSuite(tr, pol)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := suites[s.Fingerprint()]; !ok {
				suites[s.Fingerprint()] = pointSuite{spec.Name, pol}
			}
		}
	}
	dir := t.TempDir()
	store, err := sweep.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext()
	c.Cache = store
	if full {
		if _, err := c.WriteAll(filepath.Join(dir, "out"), nil); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, name := range lockSubset {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("lockSubset names unknown experiment %q", name)
			}
			arts, err := e.Run(c, e.Workload)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, a := range arts {
				if err := a.Render(io.Discard); err != nil {
					t.Fatalf("%s: %v", a.File, err)
				}
			}
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	rows := map[string]pointRow{}
	segs, err := filepath.Glob(filepath.Join(store.Dir(), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			var rec struct {
				Key    string          `json:"key"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			version, rest, _ := strings.Cut(rec.Key, "|")
			fp, params, _ := strings.Cut(rest, "|")
			ps, ok := suites[fp]
			if version != engine.Version || !ok {
				t.Fatalf("store key %q names no catalog suite at scale %d", rec.Key, scale)
			}
			params, bound := strings.CutSuffix(params, boundClass)
			k := ps.workload + " " + strconv.Itoa(scale) + " " + ps.policy.String() + " " + params
			var row pointRow
			if bound {
				var b struct {
					LowerBound int64 `json:"lower_bound"`
				}
				if err := json.Unmarshal(rec.Result, &b); err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				if _, simulated := rows[k]; simulated {
					continue
				}
				row = pointRow{Cycles: b.LowerBound, Certified: true}
			} else {
				var res engine.Result
				if err := json.Unmarshal(rec.Result, &res); err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				row = pointRow{Cycles: res.Cycles, MemHits: res.MemHits, Digest: resultDigest(&res)}
				if prev, ok := rows[k]; ok && !prev.Certified && prev != row {
					t.Errorf("%s: stored twice with different results (%+v, %+v)", k, prev, row)
				}
			}
			rows[k] = row
		}
	}
	return rows
}

// TestPointsLock renders the corpus cold and checks every point against
// points.lock: a point whose Cycles, MemHits or Result digest differs
// means a number moved, even one no output file prints, and a certified
// point whose bound differs, or that was simulated after all, means the
// bound or the probe path moved. Tier 1 checks the points of
// results.lock's fast subset; -full checks every point of repro -exp
// all and that the set of points is exactly the table's; -update
// regenerates the table from a full render.
func TestPointsLock(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the corpus")
	}
	full := *fullResults || *updateResults
	got := renderPoints(t, full)
	if *updateResults {
		writePointsLock(t, got)
		return
	}
	want, err := readPointsLock(pointsLock)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/experiments -run TestPointsLock -update)", err)
	}
	if len(got) == 0 {
		t.Fatal("the render simulated no points")
	}
	keys := make([]string, 0, len(got))
	for k := range got { //daelint:nondeterministic-ok keys are sorted before comparing
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s is not in %s", k, pointsLock)
		case got[k] != w:
			t.Errorf("%s: got %+v, %s records %+v", k, got[k], pointsLock, w)
		}
	}
	if full && len(got) != len(want) {
		t.Errorf("repro -exp all simulated %d points, %s lists %d", len(got), pointsLock, len(want))
	}
}

func writePointsLock(t *testing.T, rows map[string]pointRow) {
	t.Helper()
	keys := make([]string, 0, len(rows))
	for k := range rows { //daelint:nondeterministic-ok keys are sorted before writing
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Every point a cold `repro -exp all` simulates, one per line:\n")
	b.WriteString("#   <result digest> <cycles> <mem hits> <workload> <scale> <policy> <params>\n")
	b.WriteString("# and every search probe it only ever answers with a certified lower\n")
	b.WriteString("# bound above the probe's target instead of simulating:\n")
	b.WriteString("#   certified <lower bound> - <workload> <scale> <policy> <params>\n")
	b.WriteString("# The digest is the first 12 hex digits of the SHA-256 of the Result's\n")
	b.WriteString("# JSON encoding; params are machine.Params.AppendCacheKey's encoding.\n")
	b.WriteString("# Checked by TestPointsLock (the fast subset's points in tier 1, every\n")
	b.WriteString("# point with -full). Regenerate, only when a change is meant to move a\n")
	b.WriteString("# number, with:\n")
	b.WriteString("#\n")
	b.WriteString("#   go test ./internal/experiments -run TestPointsLock -update\n")
	for _, k := range keys {
		r := rows[k]
		if r.Certified {
			fmt.Fprintf(&b, "certified %d - %s\n", r.Cycles, k)
			continue
		}
		fmt.Fprintf(&b, "%s %d %d %s\n", r.Digest, r.Cycles, r.MemHits, k)
	}
	if err := os.WriteFile(filepath.FromSlash(pointsLock), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readPointsLock parses the table into point key → row.
func readPointsLock(path string) (map[string]pointRow, error) {
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]pointRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 4)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		cycles, err1 := strconv.ParseInt(fields[1], 10, 64)
		if fields[0] == "certified" && fields[2] == "-" && err1 == nil {
			out[fields[3]] = pointRow{Cycles: cycles, Certified: true}
			continue
		}
		hits, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[3]] = pointRow{Cycles: cycles, MemHits: hits, Digest: fields[0]}
	}
	return out, sc.Err()
}
