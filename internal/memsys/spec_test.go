package memsys

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	valid := []struct{ in, want string }{ // input, canonical String
		{"", "none"},
		{"none", "none"},
		{"bypass:64", "bypass:64"},
		{"bypass:1048576", "bypass:1048576"},
		{"cache:64x2@2,1024x4@8", "cache:64x2@2,1024x4@8"},
		{"cache:1x1@0,2x2@1,65536x64@9", "cache:1x1@0,2x2@1,65536x64@9"},
		{"cache:+64x02@-0", "cache:64x2@0"},
	}
	for _, tc := range valid {
		in, want := tc.in, tc.want
		s, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got := s.String(); got != want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", in, got, want)
		}
	}
	invalid := []string{
		"none:1", "lru:4", "bypass", "bypass:", "bypass:0", "bypass:-3", "bypass:1048577",
		"bypass:68719476736", "bypass:6x", "cache", "cache:", "cache:64x2", "cache:64@2",
		"cache:3x2@1", "cache:0x2@1", "cache:64x0@1", "cache:64x2@-1", "cache:131072x1@1",
		"cache:1x65@1", "cache:68719476736x2@1", "cache:64x68719476736@1",
		"cache:1x1@1,1x1@1,1x1@1,1x1@1", "cache:64x2@2,", "cache:64x2@2@3",
	}
	for _, in := range invalid {
		if s, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted %+v", in, s)
		}
	}
}

func TestSpecConstructors(t *testing.T) {
	if _, err := BypassSpec(0); err == nil {
		t.Error("a zero-line bypass must be rejected")
	}
	if _, err := CacheSpec(make([]CacheLevel, MaxLevels+1)...); err == nil {
		t.Error("a hierarchy deeper than MaxLevels must be rejected")
	}
	h, err := DefaultHierarchy(60)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultCacheSpec()
	if !reflect.DeepEqual(def.CacheLevels(), h.Levels) {
		t.Errorf("DefaultCacheSpec levels %v, DefaultHierarchy %v", def.CacheLevels(), h.Levels)
	}
	if again, err := CacheSpec(h.Levels...); err != nil || again != def {
		t.Errorf("CacheSpec(DefaultHierarchy levels) = %v, %v; want %v", again, err, def)
	}
	// Gaps in the level list describe no hierarchy.
	gap := Spec{Kind: CacheModel, Levels: [MaxLevels]CacheLevel{{Sets: 1, Ways: 1}, {}, {Sets: 2, Ways: 1}}}
	if err := gap.Validate(); err == nil {
		t.Error("a level after an empty one must be rejected")
	}
	if err := (Spec{Lines: 4}).Validate(); err == nil {
		t.Error("geometry without a model must be rejected")
	}
}

// FuzzMemSpec: whatever text arrives, ParseSpec either rejects it or
// returns a valid spec within the geometry bounds whose String parses
// back to the same value and the same text. Run with
//
//	go test -fuzz FuzzMemSpec ./internal/memsys
func FuzzMemSpec(f *testing.F) {
	for _, seed := range []string{
		"", "none", "bypass:64", "cache:64x2@2,1024x4@8", "cache:1x1@0,2x2@1,4x4@2",
		"none:1", "bypass:0", "bypass:68719476736", "cache:3x2@1", "cache:131072x1@1",
		"cache:1x65@1", "cache:1x1@1,1x1@1,1x1@1,1x1@1", "cache:64x2", "cache:+64x02@-0", "lru:4",
		strings.Repeat("cache:1x1@1,", 100),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned an invalid spec: %v", text, err)
		}
		if s.Lines > MaxBypassLines {
			t.Fatalf("ParseSpec(%q) accepted %d bypass lines", text, s.Lines)
		}
		for _, l := range s.CacheLevels() {
			if l.Sets > MaxSets || l.Ways > MaxWays {
				t.Fatalf("ParseSpec(%q) accepted level %+v", text, l)
			}
		}
		canon := s.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) → %q does not parse: %v", text, canon, err)
		}
		if again != s || again.String() != canon {
			t.Fatalf("round trip of %q: %+v → %q → %+v", text, s, canon, again)
		}
	})
}
