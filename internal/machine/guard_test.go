package machine

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daesim/internal/partition"
	"daesim/internal/workloads"
)

var update = flag.Bool("update", false, "regenerate testdata/lowering.manifest from the current lowerings")

// guardManifest maps every guarded suite to its source key and its
// lowered content. Regenerate it with
//
//	go test ./internal/machine -run TestLoweringGuard -update
const guardManifest = "testdata/lowering.manifest"

// guardWorkloads lists the workloads the guard pins: the catalog plus
// one generated workload.
func guardWorkloads() []string {
	names := []string{"spec:depth=8,ilp=4,mem=0.4,addr=gather,iters=64,seed=3"}
	for _, spec := range workloads.Catalog() {
		names = append(names, spec.Name)
	}
	return names
}

// loweredDigest hashes the suite's lowered programs: each program's
// name, unit count, trace length and every field of every op, as
// little-endian 8-byte integers. Until lower.Version existed this was
// the store key; it now only watches the source key from the guard.
func loweredDigest(t *testing.T, s *Suite) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	wInt := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, kind := range []Kind{DM, SWSM} {
		p, err := s.Program(kind)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(p.Name))
		wInt(int64(p.NumUnits))
		wInt(int64(p.TraceLen))
		ops := p.Ops()
		wInt(int64(len(ops)))
		for i := range ops {
			op := &ops[i]
			wInt(int64(op.Kind))
			wInt(int64(op.Unit))
			wInt(int64(op.MemSrc))
			wInt(int64(op.Addr))
			wInt(int64(op.Orig))
			wInt(int64(len(op.Srcs)))
			for _, src := range op.Srcs {
				wInt(int64(src))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// guardEntry is one manifest line.
type guardEntry struct{ key, lowered string }

// TestLoweringGuard holds the source key to what it stands for. Store
// keys name lowering inputs (lower.Version, trace, assignment), so a
// change to lowering that forgets to bump lower.Version would serve
// results of the old programs. The manifest records, per workload and
// policy, the key and a hash of the lowered programs: if the programs
// change while the key does not, the version bump is missing. Any other
// drift (a recalibrated workload, a deliberate bump) is a stale
// manifest, regenerated only by -update so the change shows in review.
func TestLoweringGuard(t *testing.T) {
	got := map[string]guardEntry{}
	var order []string
	for _, name := range guardWorkloads() {
		tr, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range partition.Policies() {
			s, err := NewSuite(tr, pol)
			if err != nil {
				t.Fatal(err)
			}
			id := name + " " + pol.String()
			got[id] = guardEntry{s.Fingerprint(), loweredDigest(t, s)}
			order = append(order, id)
		}
	}
	// Within one build the key must also pin the programs: a key shared
	// by two guarded suites (policies with identical assignments) must
	// name identical programs, or lowering reads something the key omits.
	byKey := map[string]string{}
	for _, id := range order {
		g := got[id]
		if prev, ok := byKey[g.key]; ok && prev != g.lowered {
			t.Errorf("%s: source key %s names two different lowerings: lowering reads an input the key does not cover", id, g.key)
		}
		byKey[g.key] = g.lowered
	}

	if *update {
		var b strings.Builder
		b.WriteString("# Lowering guard: <workload> <policy> <source key> <lowered-program hash>.\n")
		b.WriteString("# Regenerate (after bumping lower.Version if the programs changed) with:\n")
		b.WriteString("#\n")
		b.WriteString("#   go test ./internal/machine -run TestLoweringGuard -update\n")
		for _, id := range order {
			fmt.Fprintf(&b, "%s %s %s\n", id, got[id].key, got[id].lowered)
		}
		if err := os.WriteFile(filepath.FromSlash(guardManifest), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, err := readGuardManifest(guardManifest)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/machine -run TestLoweringGuard -update)", err)
	}
	for _, id := range order {
		w, ok := want[id]
		g := got[id]
		switch {
		case !ok:
			t.Errorf("%s: not in %s; regenerate with -update", id, guardManifest)
		case g.key == w.key && g.lowered != w.lowered:
			t.Errorf("%s: lowered programs changed but the source key %s did not: bump lower.Version, then regenerate with -update", id, g.key)
		case g != w:
			t.Errorf("%s: manifest records key %s / programs %s, current build gives %s / %s; regenerate with -update", id, w.key, w.lowered, g.key, g.lowered)
		}
		delete(want, id)
	}
	for id := range want { //daelint:nondeterministic-ok order-free report of stale manifest lines
		t.Errorf("%s: in %s but no longer guarded; regenerate with -update", id, guardManifest)
	}
}

// readGuardManifest parses the manifest, keyed by "<workload> <policy>".
func readGuardManifest(path string) (map[string]guardEntry, error) {
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]guardEntry{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[0]+" "+fields[1]] = guardEntry{fields[2], fields[3]}
	}
	return out, sc.Err()
}
