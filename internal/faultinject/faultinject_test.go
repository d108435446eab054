package faultinject

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("seed=7,timeout:rate=0.25,refuse@r2:from=5:to=9,slow:delay=20ms,refuse@r1:period=6:duty=3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Rules) != 4 {
		t.Fatalf("got seed %d, %d rules", s.Seed, len(s.Rules))
	}
	want := []Rule{
		{Kind: Timeout, Rate: 0.25},
		{Kind: Refuse, Scope: "r2", Rate: 1, From: 5, To: 9},
		{Kind: Slow, Rate: 1, Delay: 20 * time.Millisecond},
		{Kind: Refuse, Scope: "r1", Rate: 1, Period: 6, Duty: 3},
	}
	if !reflect.DeepEqual(s.Rules, want) {
		t.Fatalf("rules:\n got %+v\nwant %+v", s.Rules, want)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"",                             // no seed
		"timeout",                      // no seed
		"seed=x",                       // bad seed
		"seed=1,explode",               // unknown kind
		"seed=1,timeout:rate=1.5",      // rate out of range
		"seed=1,timeout:rate=0",        // rate out of range
		"seed=1,slow",                  // slow without delay
		"seed=1,refuse:period=4",       // period without duty
		"seed=1,refuse:duty=3",         // duty without period
		"seed=1,refuse:delay=200ms",    // delay on a kind that never sleeps
		"seed=1,refuse@r1:from=5:to=5", // empty index window
		"seed=1,refuse:from=9:to=3",    // inverted index window
		"seed=1,timeout:bogus=1",       // unknown option
		"seed=1,none",                  // none is not injectable
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q): want error, got nil", spec)
		}
	}
}

// Decisions must be a pure function of (seed, scope, index): same
// coordinates, same verdict, on every evaluation order.
func TestDecideDeterministic(t *testing.T) {
	s, err := ParseSchedule("seed=42,timeout:rate=0.3,corrupt@r1:rate=0.5,refuse@r2:from=10")
	if err != nil {
		t.Fatal(err)
	}
	scopes := []string{"r0", "r1", "r2", "store"}
	first := make(map[string][]Decision)
	for _, sc := range scopes {
		for i := uint64(0); i < 200; i++ {
			first[sc] = append(first[sc], s.Decide(sc, i))
		}
	}
	// Re-evaluate in reverse order: pure functions don't care.
	for si := len(scopes) - 1; si >= 0; si-- {
		sc := scopes[si]
		for i := uint64(199); ; i-- {
			if got := s.Decide(sc, i); got != first[sc][i] {
				t.Fatalf("Decide(%q,%d) = %+v on re-evaluation, was %+v", sc, i, got, first[sc][i])
			}
			if i == 0 {
				break
			}
		}
	}
	// A different seed must produce a different fault pattern.
	other := s
	other.Seed = 43
	same := true
	for i := uint64(0); i < 200 && same; i++ {
		same = other.Decide("r0", i) == first["r0"][i]
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical r0 decision sequences")
	}
}

func TestRuleSelectors(t *testing.T) {
	s := Schedule{Seed: 1, Rules: []Rule{{Kind: Refuse, Scope: "r2", Rate: 1, From: 5, To: 9}}}
	for i := uint64(0); i < 15; i++ {
		want := None
		if i >= 5 && i < 9 {
			want = Refuse
		}
		if got := s.Decide("r2", i).Kind; got != want {
			t.Errorf("index %d: got %v want %v", i, got, want)
		}
		if got := s.Decide("r0", i).Kind; got != None {
			t.Errorf("scope r0 index %d: got %v, rule is scoped to r2", i, got)
		}
	}
	flap := Schedule{Seed: 1, Rules: []Rule{{Kind: Refuse, Rate: 1, Period: 6, Duty: 3}}}
	for i := uint64(0); i < 24; i++ {
		want := None
		if i%6 < 3 {
			want = Refuse
		}
		if got := flap.Decide("r0", i).Kind; got != want {
			t.Errorf("flap index %d: got %v want %v", i, got, want)
		}
	}
}

func TestRateIsRoughlyProportional(t *testing.T) {
	s := Schedule{Seed: 9, Rules: []Rule{{Kind: Timeout, Rate: 0.2}}}
	hits := 0
	const n = 5000
	for i := uint64(0); i < n; i++ {
		if s.Decide("r0", i).Kind == Timeout {
			hits++
		}
	}
	if hits < n*15/100 || hits > n*25/100 {
		t.Fatalf("rate=0.2 hit %d/%d operations", hits, n)
	}
}

func TestInjectorTraceReplays(t *testing.T) {
	sched, err := ParseSchedule("seed=5,timeout:rate=0.3,corrupt@b:rate=0.4")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Event {
		in := NewInjector(sched)
		for i := 0; i < 50; i++ {
			in.Next("a")
		}
		for i := 0; i < 30; i++ {
			in.Next("b")
		}
		return in.Trace()
	}
	t1, t2 := run(), run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same schedule, same per-scope operation sequence, different traces")
	}
	in := NewInjector(sched)
	for i := 0; i < 10; i++ {
		in.Next("a")
	}
	c := in.Counts()
	if c.Ops != 10 {
		t.Fatalf("Ops = %d after 10 operations", c.Ops)
	}
	if c.Faults != c.Refuse+c.Timeout+c.Slow+c.Truncate+c.Corrupt+c.ServerError {
		t.Fatalf("Faults %d does not sum the per-kind counts: %+v", c.Faults, c)
	}
}

// Corrupt must always be detectable: 0x00 is invalid anywhere in JSON,
// so a corrupted JSON payload never decodes cleanly.
func TestCorruptAlwaysBreaksJSON(t *testing.T) {
	payload, err := json.Marshal(map[string]any{
		"key": "αβγ quoted \"stuff\" and ÿ bytes", "n": 12345, "list": []int{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for roll := uint64(0); roll < uint64(len(payload)); roll++ {
		got := Mangle(Decision{Kind: Corrupt, Roll: roll}, payload)
		var v map[string]any
		if json.Unmarshal(got, &v) == nil {
			t.Fatalf("corruption at roll %d survived JSON decode: %q", roll, got)
		}
	}
	if cut := Mangle(Decision{Kind: Truncate, Roll: 3}, payload); len(cut) >= len(payload) {
		t.Fatalf("truncate did not shorten: %d -> %d bytes", len(payload), len(cut))
	}
	if same := Mangle(Decision{Kind: None}, payload); &same[0] != &payload[0] {
		t.Fatal("None decision should pass data through untouched")
	}
}

func TestTransportFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true,"payload":"0123456789abcdef"}`)
	}))
	defer srv.Close()

	get := func(in *Injector) (*http.Response, error) {
		c := &http.Client{Transport: &Transport{Injector: in, Scope: "r0"}}
		return c.Get(srv.URL)
	}

	// Refuse and Timeout synthesize transport errors; Timeout satisfies
	// net.Error.Timeout().
	in := NewInjector(Schedule{Seed: 1, Rules: []Rule{{Kind: Refuse, Rate: 1, To: 1}, {Kind: Timeout, Rate: 1, From: 1, To: 2}}})
	if _, err := get(in); err == nil {
		t.Fatal("refused request returned no error")
	}
	_, err := get(in)
	var ne net.Error
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("injected timeout is not a net.Error timeout: %v", err)
	}

	// ServerError synthesizes a 503 without reaching the server.
	in = NewInjector(Schedule{Seed: 1, Rules: []Rule{{Kind: ServerError, Rate: 1}}})
	resp, err := get(in)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// Corrupt damages the body so it no longer decodes.
	in = NewInjector(Schedule{Seed: 1, Rules: []Rule{{Kind: Corrupt, Rate: 1}}})
	resp, err = get(in)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("corrupted body decoded cleanly: %q", body)
	}

	// None passes through.
	in = NewInjector(Schedule{Seed: 1})
	resp, err = get(in)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("clean request body mangled: %q", body)
	}
	if c := in.Counts(); c.Ops != 1 || c.Faults != 0 {
		t.Fatalf("counts after one clean request: %+v", c)
	}
}

func TestStoreFaultsScope(t *testing.T) {
	in := NewInjector(Schedule{Seed: 1, Rules: []Rule{{Kind: Corrupt, Scope: "store", Rate: 1}}})
	sf := &StoreFaults{Injector: in}
	data := []byte(`{"key":"k","sum":"s"}`)
	if got := sf.OnRead("k", data); string(got) == string(data) {
		t.Fatal("corrupt-all rule left a read untouched")
	}
	if got := sf.OnWrite("k", data); string(got) == string(data) {
		t.Fatal("corrupt-all rule left a write untouched")
	}
	if c := in.Counts(); c.Ops != 2 || c.Corrupt != 2 {
		t.Fatalf("counts: %+v", c)
	}
}
