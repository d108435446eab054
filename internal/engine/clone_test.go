package engine

import (
	"reflect"
	"testing"
)

// TestCloneCoversAllResultFields pins the field lists of Result and
// CoreStats by name (daelint's schemaguard proves the deep-copy
// coverage statically; this is the runtime backstop). If this fails you
// added, removed or renamed a field: extend Result.Clone to deep-copy
// any new reference-typed field first, then update the list here. A
// shallow-aliased slice would silently break the defensive-copy
// contract of the result caches (sweep.Runner/Store).
func TestCloneCoversAllResultFields(t *testing.T) {
	auditField(t, reflect.TypeOf(Result{}), []string{
		"Cycles", "Ops", "TraceLen", "Cores",
		"MaxESW", "AvgESW", "MaxSlip", "AvgSlip",
		"Fills", "MemHits", "MaxFillsInFlight",
	})
	auditField(t, reflect.TypeOf(CoreStats{}), []string{
		"Issued", "IssuedByKind", "BusyCycles", "IssueHist",
		"OccIntegral", "MaxOcc",
	})
}

// auditField fails naming the exact fields that drifted from the
// audited list.
func auditField(t *testing.T, typ reflect.Type, known []string) {
	t.Helper()
	have := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		have[typ.Field(i).Name] = true
	}
	audited := map[string]bool{}
	for _, n := range known {
		audited[n] = true
		if !have[n] {
			t.Errorf("%s.%s was audited but is no longer declared: update the audit list", typ.Name(), n)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if n := typ.Field(i).Name; !audited[n] {
			t.Errorf("%s.%s is not in the audited field list: audit Clone for it, then add it here", typ.Name(), n)
		}
	}
}

// TestCloneIsDeep proves no reference state is shared between a Result
// and its clone.
func TestCloneIsDeep(t *testing.T) {
	orig := &Result{
		Cycles: 7, Ops: 3, TraceLen: 2,
		Cores: []CoreStats{
			{Issued: 1, IssueHist: []int64{4, 5}},
			{Issued: 2, IssueHist: nil},
		},
		MaxESW: 9, AvgESW: 1.5, Fills: 4,
	}
	c := orig.Clone()
	if !reflect.DeepEqual(orig, c) {
		t.Fatalf("clone differs: %+v vs %+v", orig, c)
	}
	c.Cores[0].Issued = -1
	c.Cores[0].IssueHist[0] = -1
	if orig.Cores[0].Issued != 1 || orig.Cores[0].IssueHist[0] != 4 {
		t.Fatal("clone shares state with the original")
	}
	if (*Result)(nil).Clone() != nil {
		t.Fatal("nil clone must be nil")
	}
}
