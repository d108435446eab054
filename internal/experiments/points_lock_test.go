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
	"sync"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// pointsLock pins every point a storeless cold repro -exp all
// simulates: its Cycles, its MemHits and a digest of its whole Result.
// results.lock pins the files; this table pins the numbers behind them,
// including the ones no figure prints (OccIntegral, IssueHist). Rows are
// keyed by what a point is, never by its store key, so a change that
// moves every store key still compares point for point. Regenerate it,
// only when a change is meant to move a number, with
//
//	go test ./internal/experiments -run TestPointsLock -update
const pointsLock = "../engine/points.lock"

// pointRow is one simulated point's pinned outcome.
type pointRow struct {
	Cycles, MemHits int64
	// Digest is the first 12 hex digits of the SHA-256 of the Result's
	// JSON encoding.
	Digest string
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
	suite    *machine.Suite
}

// renderPoints renders the corpus storeless — the whole of repro -exp
// all when full, else lockSubset — and returns every point it
// simulated, keyed "workload scale policy cachekey". Every miss is
// routed through the context's point-wise Remote hook, which simulates
// it locally on a suite of the same fingerprint and records it. Unlike
// RemoteBatch, that hook leaves every caller on its local path (a
// search still probes one point at a time), so the points are exactly
// the ones a storeless local render simulates, detached policy runners
// included. Policies whose assignments coincide share a
// fingerprint and simulate identical programs; their points are keyed
// under the first such policy in partition.Policies order.
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
				suites[s.Fingerprint()] = pointSuite{spec.Name, pol, s}
			}
		}
	}
	var (
		mu   sync.Mutex
		rows = map[string]pointRow{}
		bad  []string
	)
	c := NewContext()
	c.Remote = func(workload string, sc int, fp string, pt sweep.Point) (*engine.Result, error) {
		ps, ok := suites[fp]
		if !ok || ps.workload != workload || sc != scale {
			return nil, fmt.Errorf("point lock: no catalog suite for %s at scale %d with fingerprint %s", workload, sc, fp)
		}
		res, err := ps.suite.Run(pt.Kind, pt.P)
		if err != nil {
			return nil, err
		}
		k := string(pt.P.AppendCacheKey([]byte(workload+" "+strconv.Itoa(sc)+" "+ps.policy.String()+" "), pt.Kind))
		row := pointRow{Cycles: res.Cycles, MemHits: res.MemHits, Digest: resultDigest(res)}
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := rows[k]; dup && prev != row {
			bad = append(bad, fmt.Sprintf("%s: simulated twice with different results (%+v, %+v)", k, prev, row))
		}
		rows[k] = row
		return res, nil
	}
	if full {
		if _, err := c.WriteAll(t.TempDir(), nil); err != nil {
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
	for _, b := range bad {
		t.Error(b)
	}
	return rows
}

// TestPointsLock simulates the corpus storeless and checks every point
// against points.lock: a point whose Cycles, MemHits or Result digest
// differs means a number moved, even one no output file prints. Tier 1
// checks the points of results.lock's fast subset; -full checks every
// point of repro -exp all and that the set of points is exactly the
// table's; -update regenerates the table from a full render.
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
	b.WriteString("# Every point a storeless cold `repro -exp all` simulates, one per line:\n")
	b.WriteString("#   <result digest> <cycles> <mem hits> <workload> <scale> <policy> <params>\n")
	b.WriteString("# The digest is the first 12 hex digits of the SHA-256 of the Result's\n")
	b.WriteString("# JSON encoding; params are machine.Params.AppendCacheKey's encoding.\n")
	b.WriteString("# Checked by TestPointsLock (the fast subset's points in tier 1, every\n")
	b.WriteString("# point with -full). Regenerate, only when a change is meant to move a\n")
	b.WriteString("# number, with:\n")
	b.WriteString("#\n")
	b.WriteString("#   go test ./internal/experiments -run TestPointsLock -update\n")
	for _, k := range keys {
		r := rows[k]
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
		hits, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[3]] = pointRow{Cycles: cycles, MemHits: hits, Digest: fields[0]}
	}
	return out, sc.Err()
}
