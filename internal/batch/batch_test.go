package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"potsim/internal/guard"
)

func TestMapOrderedResults(t *testing.T) {
	const n = 100
	got, err := Map(context.Background(), Options{Workers: 8}, n,
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapOrderingUnderShuffledCompletion forces cells to finish in an
// order unrelated to their index and checks the slots still line up.
func TestMapOrderingUnderShuffledCompletion(t *testing.T) {
	const n = 64
	got, err := Map(context.Background(), Options{Workers: 16}, n,
		func(_ context.Context, i int) (int, error) {
			// Earlier cells sleep longer, so completion order is roughly
			// the reverse of submission order.
			time.Sleep(time.Duration(n-i) * 200 * time.Microsecond)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("results[%d] = %d: completion order leaked into collection order", i, v)
		}
	}
}

// TestMapPoolSaturation checks the pool never runs more than Workers
// cells at once yet does reach that bound.
func TestMapPoolSaturation(t *testing.T) {
	const workers, n = 4, 32
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), Options{Workers: workers}, n,
		func(_ context.Context, i int) (struct{}, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("pool oversubscribed: %d cells in flight, cap %d", p, workers)
	} else if p < workers {
		t.Errorf("pool never saturated: peak %d, want %d", p, workers)
	}
}

func TestMapDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	// Indirect check: Options{}.workers(n) resolves to GOMAXPROCS,
	// clamped by the cell count.
	if got, want := (Options{}).workers(1<<30), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Options{Workers: 16}).workers(3); got != 3 {
		t.Errorf("workers not clamped to cell count: %d", got)
	}
	if got := (Options{Workers: -5}).workers(8); got < 1 {
		t.Errorf("negative Workers resolved to %d", got)
	}
}

// TestMapAggregatesAllErrors: a mid-batch failure must not hide other
// failures or discard successful results.
func TestMapAggregatesAllErrors(t *testing.T) {
	bad := map[int]bool{3: true, 7: true, 11: true}
	got, err := Map(context.Background(), Options{Workers: 4}, 16,
		func(_ context.Context, i int) (int, error) {
			if bad[i] {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i + 1, nil
		})
	if err == nil {
		t.Fatal("want aggregated error, got nil")
	}
	for i := range bad {
		if !strings.Contains(err.Error(), fmt.Sprintf("cell %d", i)) {
			t.Errorf("aggregated error missing cell %d: %v", i, err)
		}
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Errorf("error chain has no *CellError: %v", err)
	}
	for i, v := range got {
		if bad[i] {
			continue
		}
		if v != i+1 {
			t.Errorf("successful cell %d lost its result: got %d", i, v)
		}
	}
}

func TestMapPanicRecoveredAsError(t *testing.T) {
	got, err := Map(context.Background(), Options{Workers: 2}, 4,
		func(_ context.Context, i int) (int, error) {
			if i == 2 {
				panic("cell exploded")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("panicking cell produced no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error chain has no *PanicError: %v", err)
	}
	if pe.Value != "cell exploded" {
		t.Errorf("panic value %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 2 {
		t.Errorf("panic not attributed to cell 2: %v", err)
	}
	if got[1] != 1 || got[3] != 3 {
		t.Error("panic discarded sibling results")
	}
}

// TestMapContextCancellation: cancelling stops dispatch of new cells;
// already-finished results survive and the error reports the cut.
func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 50
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	got, err := Map(ctx, Options{Workers: 2}, n,
		func(_ context.Context, i int) (int, error) {
			started.Add(1)
			once.Do(func() {
				cancel()
				close(release)
			})
			<-release
			return i + 100, nil
		})
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "not started") {
		t.Errorf("error does not report undispatched cells: %v", err)
	}
	s := started.Load()
	if s == 0 || s == n {
		t.Errorf("started %d cells, want some but not all of %d", s, n)
	}
	if got[0] != 100 {
		t.Errorf("in-flight cell result dropped: got[0] = %d", got[0])
	}
	if len(got) != n {
		t.Errorf("result slice resized to %d", len(got))
	}
}

func TestMapZeroCells(t *testing.T) {
	got, err := Map(context.Background(), Options{}, 0,
		func(_ context.Context, i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Errorf("empty batch: got %v, %v", got, err)
	}
}

func TestMapNilContext(t *testing.T) {
	got, err := Map(nil, Options{Workers: 2}, 3, //nolint:staticcheck // nil ctx is part of the contract
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 2 {
		t.Errorf("got %v", got)
	}
}

func TestMapProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	total := -1
	_, err := Map(context.Background(), Options{
		Workers: 3,
		OnCellDone: func(done, n int) {
			mu.Lock()
			defer mu.Unlock()
			dones = append(dones, done)
			total = n
		},
	}, 10, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 || len(dones) != 10 {
		t.Fatalf("progress calls = %d (total %d), want 10", len(dones), total)
	}
	seen := map[int]bool{}
	for _, d := range dones {
		if d < 1 || d > 10 || seen[d] {
			t.Fatalf("done counter not a permutation of 1..10: %v", dones)
		}
		seen[d] = true
	}
}

func TestMapCellTimeoutMarksHungCell(t *testing.T) {
	released := make(chan struct{})
	defer close(released)
	results, err := Map(context.Background(),
		Options{Workers: 4, CellTimeout: 20 * time.Millisecond}, 4,
		func(ctx context.Context, i int) (int, error) {
			if i == 2 {
				// A cooperative hang: waits for the watchdog to cancel
				// its context (or the test to end).
				select {
				case <-ctx.Done():
				case <-released:
				}
				return 0, fmt.Errorf("hung cell woke up: %w", ctx.Err())
			}
			return i * 10, nil
		})
	if err == nil {
		t.Fatal("hung cell did not fail the batch")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v carries no *TimeoutError", err)
	}
	if te.Index != 2 {
		t.Errorf("timed-out cell index = %d, want 2", te.Index)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 2 {
		t.Errorf("timeout not wrapped in cell 2's *CellError: %v", err)
	}
	// Siblings must complete normally with their results intact.
	for _, i := range []int{0, 1, 3} {
		if results[i] != i*10 {
			t.Errorf("sibling cell %d result %d, want %d", i, results[i], i*10)
		}
	}
	if results[2] != 0 {
		t.Errorf("timed-out cell result %d, want zero value", results[2])
	}
}

func TestMapTimeoutCancelsCellContext(t *testing.T) {
	cancelled := make(chan struct{})
	_, err := Map(context.Background(),
		Options{Workers: 1, CellTimeout: 10 * time.Millisecond}, 1,
		func(ctx context.Context, i int) (int, error) {
			go func() {
				<-ctx.Done()
				close(cancelled)
			}()
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
			return 0, ctx.Err()
		})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want timeout, got %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("cell context never cancelled after the deadline")
	}
}

func TestMapRetrySucceedsAfterTransientFailure(t *testing.T) {
	var attempts atomic.Int32
	results, err := Map(context.Background(),
		Options{Workers: 1, Retries: 2}, 1,
		func(ctx context.Context, i int) (int, error) {
			if attempts.Add(1) < 3 {
				return 0, fmt.Errorf("transient glitch %d", attempts.Load())
			}
			return 42, nil
		})
	if err != nil {
		t.Fatalf("retry did not rescue the cell: %v", err)
	}
	if results[0] != 42 {
		t.Errorf("result %d, want 42", results[0])
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3", got)
	}
}

func TestMapRetryExhaustionAggregatesAttempts(t *testing.T) {
	var attempts atomic.Int32
	_, err := Map(context.Background(),
		Options{Workers: 1, Retries: 2, RetryBackoff: time.Millisecond}, 1,
		func(ctx context.Context, i int) (int, error) {
			return 0, fmt.Errorf("glitch %d", attempts.Add(1))
		})
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3", got)
	}
	for a := 1; a <= 3; a++ {
		want := fmt.Sprintf("attempt %d: glitch %d", a, a)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate error missing %q:\n%v", want, err)
		}
	}
}

func TestMapPanicsAndTimeoutsNotRetriedByDefault(t *testing.T) {
	var attempts atomic.Int32
	_, err := Map(context.Background(),
		Options{Workers: 1, Retries: 5}, 1,
		func(ctx context.Context, i int) (int, error) {
			attempts.Add(1)
			panic("deterministic crash")
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want panic error, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("panicking cell attempted %d times, want 1", got)
	}

	attempts.Store(0)
	_, err = Map(context.Background(),
		Options{Workers: 1, Retries: 5, CellTimeout: 10 * time.Millisecond}, 1,
		func(ctx context.Context, i int) (int, error) {
			attempts.Add(1)
			<-ctx.Done()
			return 0, ctx.Err()
		})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want timeout error, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("timed-out cell attempted %d times, want 1", got)
	}
}

// TestGuardViolationsNeverRetried: a cell that broke a runtime invariant
// breaks it again on every attempt (a resumed sim restarts from a
// snapshot taken before the violation), so a retry budget must not re-run
// it, even when the violation arrives wrapped.
func TestGuardViolationsNeverRetried(t *testing.T) {
	var attempts atomic.Int32
	_, err := Map(context.Background(),
		Options{Workers: 1, Retries: 2}, 1,
		func(ctx context.Context, i int) (int, error) {
			attempts.Add(1)
			return 0, fmt.Errorf("cell run: %w", &guard.ViolationError{
				V: guard.Violation{Invariant: "temp-bounds", Detail: "core 3 at 900 K"}})
		})
	var ve *guard.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("want a guard violation, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("violating cell attempted %d times, want 1", got)
	}
}

// TestBackoffDefaultCapIsTenTimesBase: the retry pause doubles from the
// base and clamps at 10x the base instead of letting a deep retry budget
// run it away.
func TestBackoffDefaultCapIsTenTimesBase(t *testing.T) {
	opts := Options{RetryBackoff: time.Second}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		10 * time.Second, 10 * time.Second, 10 * time.Second,
	}
	for i, w := range want {
		if got := opts.backoffAfter(i + 1); got != w {
			t.Errorf("backoffAfter(%d) = %v, want %v", i+1, got, w)
		}
	}
	// No base means no pause whatever the attempt count.
	if got := (Options{}).backoffAfter(3); got != 0 {
		t.Errorf("zero-base backoffAfter(3) = %v, want 0", got)
	}
	// Doubling that overflows time.Duration falls back to the cap, never
	// to a negative pause.
	huge := Options{RetryBackoff: time.Duration(1) << 61}
	if got := huge.backoffAfter(4); got < huge.RetryBackoff {
		t.Errorf("overflowed backoff %v is below its base", got)
	}
}
