// Package batch is a generic parallel executor for independent
// simulation cells. An experiment enumerates its (config x policy x
// seed) cells up front and submits them as indexed work items; the pool
// runs them on a bounded set of workers and writes each result into the
// slot of its cell index, so collection order — and therefore every
// downstream floating-point aggregation — is identical to a sequential
// run regardless of worker count or completion schedule.
//
// Guarantees:
//
//   - Ordered results: Map returns results[i] = fn(i) for every i, in
//     index order, whatever order the cells actually finished in.
//   - Error aggregation: every failing cell is reported (errors.Join),
//     not just the first; each failure is wrapped in a *CellError
//     carrying its index.
//   - Panic containment: a panicking cell does not kill the process; the
//     panic is recovered and surfaced as that cell's error (wrapped in
//     *PanicError with the stack).
//   - Cooperative cancellation: cancelling the context stops the
//     dispatch of not-yet-started cells; in-flight cells run to
//     completion and their results are kept.
//   - Watchdog deadlines: with CellTimeout set, a cell that overruns its
//     deadline is marked failed with a *TimeoutError and its worker slot
//     is released; the cell's context is cancelled so a cooperative cell
//     drains promptly, while a wedged one leaks its goroutine instead of
//     hanging the whole batch.
//   - Bounded retry: with Retries > 0, a failed attempt is retried after
//     a backoff. Panics, timeouts and guard violations are never retried
//     (a deterministic cell fails the same way again). Exhausting the
//     budget aggregates every attempt's error.
package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"potsim/internal/guard"
)

// Options configure one batch execution.
type Options struct {
	// Workers bounds the number of concurrently running cells.
	// Values <= 0 mean runtime.GOMAXPROCS(0).
	Workers int

	// OnCellDone, when non-nil, is called after each cell finishes
	// (successfully or not) with the number of cells completed so far
	// and the batch size. Calls are serialised by the pool, but their
	// order follows completion, not cell index.
	OnCellDone func(done, total int)

	// CellTimeout, when positive, bounds the wall-clock time of each cell
	// attempt. An attempt that overruns is failed with a *TimeoutError
	// and its context is cancelled; the attempt's goroutine is left to
	// drain and its eventual result is discarded.
	CellTimeout time.Duration

	// Retries is the number of additional attempts after a failed first
	// one (0, the default, means fail fast). Attempts that fail in a way
	// no retry can change (see retryable) are not retried.
	Retries int

	// RetryBackoff is the pause before the first retry; each further
	// retry doubles it, up to 10x RetryBackoff, so a deep retry budget
	// cannot grow the pause without bound. Zero means retry immediately.
	RetryBackoff time.Duration
}

// backoffAfter returns the pause before the retry that follows the
// given number of failed attempts (failures >= 1): RetryBackoff doubled
// per further failure, clamped to 10x RetryBackoff. The sequence is
// deterministic — base, 2x, 4x, 8x, 10x, 10x — so retry schedules are
// reproducible and testable.
func (o Options) backoffAfter(failures int) time.Duration {
	if o.RetryBackoff <= 0 || failures < 1 {
		return 0
	}
	limit := time.Duration(math.MaxInt64)
	if o.RetryBackoff <= limit/10 {
		limit = 10 * o.RetryBackoff
	}
	b := o.RetryBackoff
	for i := 1; i < failures && b < limit; i++ {
		b *= 2
		if b <= 0 { // doubling overflowed: only a near-MaxInt64 limit gets here
			return limit
		}
	}
	return min(b, limit)
}

// workers resolves the effective pool size for n cells.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CellError is the failure of one cell, tagged with its index.
type CellError struct {
	Index int
	Err   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %d: %v", e.Index, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// PanicError is a recovered cell panic, preserved with its stack so the
// failure is debuggable after aggregation.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// TimeoutError marks a cell attempt that overran Options.CellTimeout.
// The attempt's goroutine may still be draining when this is reported.
type TimeoutError struct {
	Index   int
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("cell %d exceeded its %v deadline", e.Index, e.Timeout)
}

// retryable reports whether a failed attempt is worth another: anything
// except a panic, a watchdog timeout or a runtime invariant violation.
// Those repeat identically in a deterministic simulation (a resumed run
// restarts from a snapshot taken before the violation), so burning the
// retry budget on them only delays the report.
func retryable(err error) bool {
	var pe *PanicError
	var te *TimeoutError
	var ve *guard.ViolationError
	return !errors.As(err, &pe) && !errors.As(err, &te) && !errors.As(err, &ve)
}

// Map runs fn(ctx, i) for every i in [0, n) on a worker pool and returns
// the n results in index order. All cell errors are aggregated; a nil
// error means every cell ran and succeeded. On context cancellation the
// returned error includes ctx.Err() and the results of cells that never
// started are left as zero values.
func Map[T any](ctx context.Context, opts Options, n int, fn func(ctx context.Context, index int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n <= 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	cellErrs := make([]error, n)
	indexes := make(chan int)
	var wg sync.WaitGroup

	var mu sync.Mutex
	done := 0
	cellDone := func() {
		if opts.OnCellDone == nil {
			return
		}
		mu.Lock()
		done++
		d := done
		mu.Unlock()
		opts.OnCellDone(d, n)
	}

	for w := 0; w < opts.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				results[i], cellErrs[i] = runAttempts(ctx, opts, i, fn)
				cellDone()
			}
		}()
	}

	// Dispatch cell indexes until done or cancelled. Workers own their
	// in-flight cell; cancellation only stops handing out new ones.
	dispatched := n
feed:
	for i := 0; i < n; i++ {
		select {
		case indexes <- i:
		case <-ctx.Done():
			dispatched = i
			break feed
		}
	}
	close(indexes)
	wg.Wait()

	errs := make([]error, 0, n-dispatched+1)
	for i, err := range cellErrs {
		if err != nil {
			errs = append(errs, &CellError{Index: i, Err: err})
		}
	}
	if dispatched < n {
		errs = append(errs, fmt.Errorf(
			"batch: cancelled with %d of %d cells not started: %w",
			n-dispatched, n, context.Cause(ctx)))
	}
	return results, errors.Join(errs...)
}

// Run executes one job under the pool's per-cell robustness contract —
// panic containment, the CellTimeout watchdog and the bounded retry
// budget — without a pool. It is the job-level API the simulation
// service uses: one submitted job is one "cell", so a poisoned job
// surfaces as a *PanicError, a wedged one as a *TimeoutError, and
// neither takes the caller down. Workers and OnCellDone are ignored.
func Run[T any](ctx context.Context, opts Options, fn func(ctx context.Context) (T, error)) (T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return runAttempts(ctx, opts, 0, func(ctx context.Context, _ int) (T, error) {
		return fn(ctx)
	})
}

// runAttempts drives one cell through its retry budget: the first
// attempt plus up to opts.Retries more, backing off (doubling) between
// attempts. On success the successful attempt's result is returned and
// earlier failures are forgotten; on exhaustion every attempt's error is
// aggregated so the report shows the full history, not just the last
// symptom.
func runAttempts[T any](ctx context.Context, opts Options, i int, fn func(context.Context, int) (T, error)) (T, error) {
	result, err := runWithWatchdog(ctx, opts, i, fn)
	if err == nil || opts.Retries <= 0 {
		return result, err
	}
	attemptErrs := []error{fmt.Errorf("attempt 1: %w", err)}
	for a := 2; a <= opts.Retries+1; a++ {
		if !retryable(err) || ctx.Err() != nil {
			break
		}
		if backoff := opts.backoffAfter(a - 1); backoff > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				var zero T
				return zero, errors.Join(append(attemptErrs, context.Cause(ctx))...)
			}
		}
		result, err = runWithWatchdog(ctx, opts, i, fn)
		if err == nil {
			return result, nil
		}
		attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", a, err))
	}
	var zero T
	return zero, errors.Join(attemptErrs...)
}

// runWithWatchdog executes one cell attempt under the optional deadline.
// The attempt runs in its own goroutine; on timeout its context is
// cancelled (a cooperative cell drains promptly) and the worker slot is
// released immediately, trading a leaked goroutine for batch liveness.
func runWithWatchdog[T any](ctx context.Context, opts Options, i int, fn func(context.Context, int) (T, error)) (T, error) {
	if opts.CellTimeout <= 0 {
		return runCell(ctx, i, fn)
	}
	cctx, cancel := context.WithCancel(ctx)
	type outcome struct {
		result T
		err    error
	}
	ch := make(chan outcome, 1)
	//potlint:goroleak deliberate: a wedged cell leaks one goroutine rather than hanging the batch
	go func() {
		defer cancel()
		r, err := runCell(cctx, i, fn)
		ch <- outcome{r, err}
	}()
	timer := time.NewTimer(opts.CellTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.result, out.err
	case <-timer.C:
		cancel()
		var zero T
		return zero, &TimeoutError{Index: i, Timeout: opts.CellTimeout}
	}
}

// runCell executes one cell with panic containment.
func runCell[T any](ctx context.Context, i int, fn func(context.Context, int) (T, error)) (result T, err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: v, Stack: buf}
		}
	}()
	return fn(ctx, i)
}
