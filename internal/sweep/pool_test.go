package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndexOnce: every index in [0, n) runs exactly once
// at any width — par <= 0 (GOMAXPROCS), par 1, par between 1 and n, and
// par > n — and n = 0 runs nothing.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, par := range []int{-1, 0, 1, 3, 50} {
			counts := make([]atomic.Int32, n)
			if err := ForEach(par, n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d par=%d: %v", n, par, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("n=%d par=%d: index %d ran %d times", n, par, i, c)
				}
			}
		}
	}
}

// TestForEachInlineOrder: at par 1 the tasks run on the caller's
// goroutine in index order, and the first error stops the rest.
func TestForEachInlineOrder(t *testing.T) {
	var order []int
	if err := ForEach(1, 5, func(i int) error {
		order = append(order, i) //daelint:nondeterministic-ok par 1 runs every task inline, in order, on this goroutine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Errorf("par 1 ran %v, want %v", order, want)
	}
	order = nil
	boom := errors.New("boom")
	if err := ForEach(1, 5, func(i int) error {
		order = append(order, i) //daelint:nondeterministic-ok par 1 runs every task inline, in order, on this goroutine
		if i == 2 {
			return boom
		}
		return nil
	}); err != boom {
		t.Errorf("got %v, want the task's error", err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("a failure at 2 ran %v, want %v", order, want)
	}
}

// TestForEachLowestIndexError: when several tasks fail, the error of the
// lowest failing index is returned, whatever order they finished in.
func TestForEachLowestIndexError(t *testing.T) {
	const n = 4
	// Every task waits until all have started, so all four are in
	// flight before any fails and none is skipped.
	var started atomic.Int32
	release := make(chan struct{})
	err := ForEach(n, n, func(i int) error {
		if started.Add(1) == n {
			close(release)
		}
		<-release
		if i == 0 {
			return nil
		}
		return fmt.Errorf("task %d", i)
	})
	if err == nil || err.Error() != "task 1" {
		t.Errorf("got %v, want task 1's error", err)
	}
}

// TestForEachFailFast: after a task fails, tasks that have not started
// are skipped and in-flight ones finish. Task 0 fails only once task 1
// is in flight on the other worker, and task 1 stays in flight until
// task 0 is failing, so the later tasks are handed out after the
// failure and none of them runs.
func TestForEachFailFast(t *testing.T) {
	const n = 50
	var ran [n]atomic.Bool
	started, failing := make(chan struct{}), make(chan struct{})
	boom := errors.New("boom")
	err := ForEach(2, n, func(i int) error {
		ran[i].Store(true)
		switch i {
		case 0:
			<-started
			close(failing)
			return boom
		case 1:
			close(started)
			<-failing
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want the failing task's error", err)
	}
	if !ran[1].Load() {
		t.Error("the in-flight task did not finish")
	}
	for i := 2; i < n; i++ {
		if ran[i].Load() {
			t.Errorf("task %d started after task 0 failed", i)
		}
	}
}
