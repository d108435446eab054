package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"daesim/internal/machine"
	"daesim/internal/sweep"
)

var (
	updateResults = flag.Bool("update", false, "regenerate results.lock from a full repro -exp all render")
	fullResults   = flag.Bool("full", false, "check all repro -exp all files against results.lock, not only the fast subset")
)

// resultsLock pins the SHA-256 of every file repro -exp all writes.
// Regenerate it, only when a change is meant to move a number, with
//
//	go test ./internal/experiments -run TestResultsLock -update
const resultsLock = "../engine/results.lock"

// lockSubset is the tier-1 slice of the corpus: the cheap artifacts
// that still cross every layer a store key names — Table 1 and
// Figures 4-6 (catalog workloads under the classic partition), the
// lowering statistics, and the policy study (every partition policy,
// with the cross-policy store sharing of identical assignments).
func lockSubset(c *Context) map[string]func(io.Writer) error {
	m := map[string]func(io.Writer) error{
		"table1.txt":    renderOf(c.Table1),
		"expansion.txt": renderOf(c.CodeExpansion),
		"policies.txt":  renderOf(c.PolicyStudy),
	}
	for _, name := range []string{"FLO52Q", "MDG", "TRACK"} {
		fig := func() (*FigureResult, error) { return c.Figure(name) }
		base := fmt.Sprintf("figure%d_%s", figureNumber[name], name)
		m[base+".txt"] = renderOf(fig)
		m[base+".dat"] = func(w io.Writer) error {
			res, err := fig()
			if err != nil {
				return err
			}
			return res.Dat(w)
		}
	}
	return m
}

// renderOf adapts a result-producing experiment to a renderer.
func renderOf[T interface{ Render(io.Writer) error }](get func() (T, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		res, err := get()
		if err != nil {
			return err
		}
		return res.Render(w)
	}
}

// renderDigests renders the corpus on a fresh Context over store and
// returns each file's SHA-256 — the whole of repro -exp all when full,
// else lockSubset in a fixed order — and the Context's cache counters.
func renderDigests(t *testing.T, store *sweep.Store, full bool) (map[string]string, sweep.CacheStats) {
	t.Helper()
	c := NewContext()
	c.Cache = store
	out := map[string]string{}
	if full {
		dir := t.TempDir()
		files, err := c.WriteAll(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			out[filepath.Base(path)] = hex.EncodeToString(sum[:])
		}
		return out, c.CacheStats()
	}
	subset := lockSubset(c)
	names := make([]string, 0, len(subset))
	for name := range subset { //daelint:nondeterministic-ok keys are sorted before rendering
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := sha256.New()
		if err := subset[name](h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	return out, c.CacheStats()
}

// TestResultsLock renders the corpus cold into a fresh store, then warm
// over the same store, and checks both renders against results.lock. A
// cold mismatch means a number moved; a warm mismatch with a clean cold
// render is the signature of store-key aliasing — two points sharing a
// key they should not. The fast subset runs by default; -full checks all
// files, and -update regenerates the lock from a full cold render.
func TestResultsLock(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the corpus twice")
	}
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full := *fullResults || *updateResults
	cold, _ := renderDigests(t, store, full)
	if *updateResults {
		writeResultsLock(t, cold)
		return
	}
	want, err := readResultsLock(resultsLock)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/experiments -run TestResultsLock -update)", err)
	}
	if full && len(cold) != len(want) {
		t.Errorf("repro -exp all wrote %d files, %s lists %d", len(cold), resultsLock, len(want))
	}
	misses := store.Stats().Misses
	dm0, sw0 := machine.Lowerings()
	warm, st := renderDigests(t, store, full)
	if got := store.Stats().Misses - misses; got != 0 {
		t.Errorf("warm render missed the store %d times; want every point served from it", got)
	}
	// Every point is cacheable, memory models included, so a warm render
	// simulates nothing and lowers no program.
	if st.Sims != 0 || st.Uncacheable != 0 {
		t.Errorf("warm render ran %d simulations and %d uncacheable points, want 0", st.Sims, st.Uncacheable)
	}
	if dm, sw := machine.Lowerings(); dm != dm0 || sw != sw0 {
		t.Errorf("warm render lowered %d DM and %d SWSM programs, want 0", dm-dm0, sw-sw0)
	}
	for _, run := range []struct {
		name    string
		digests map[string]string
	}{{"cold", cold}, {"warm", warm}} {
		for file, sum := range run.digests { //daelint:nondeterministic-ok order-free comparison; failures name the file
			w, ok := want[file]
			switch {
			case !ok:
				t.Errorf("%s: %s is not in %s", run.name, file, resultsLock)
			case sum != w:
				t.Errorf("%s: %s has SHA-256 %s, %s records %s", run.name, file, sum, resultsLock, w)
			}
		}
	}
}

func writeResultsLock(t *testing.T, digests map[string]string) {
	t.Helper()
	names := make([]string, 0, len(digests))
	for name := range digests { //daelint:nondeterministic-ok keys are sorted before writing
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# SHA-256 of every file `repro -exp all` writes, as `sha256sum` prints it.\n")
	b.WriteString("# Checked cold and warm by TestResultsLock (a fast subset in tier 1,\n")
	b.WriteString("# every file with -full). Regenerate, only when a change is meant to\n")
	b.WriteString("# move a number, with:\n")
	b.WriteString("#\n")
	b.WriteString("#   go test ./internal/experiments -run TestResultsLock -update\n")
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", digests[name], name)
	}
	if err := os.WriteFile(filepath.FromSlash(resultsLock), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readResultsLock parses the lock into file name → SHA-256.
func readResultsLock(path string) (map[string]string, error) {
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[1]] = fields[0]
	}
	return out, sc.Err()
}
