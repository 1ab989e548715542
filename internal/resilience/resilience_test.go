package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestClassifySentinels(t *testing.T) {
	cases := []struct {
		err  error
		want Kind
	}{
		{nil, KindNone},
		{ErrCancelled, KindCancelled},
		{fmt.Errorf("wrapped: %w", ErrCancelled), KindCancelled},
		{context.Canceled, KindCancelled},
		{context.DeadlineExceeded, KindCancelled},
		{ErrFaultInjected, KindFaultInjected},
		{ErrBudgetExhausted, KindBudgetExhausted},
		{fmt.Errorf("case x: %w: boom", ErrCasePanic), KindCasePanic},
		{ErrModelLint, KindModelLint},
		{fmt.Errorf("gate: %w", ErrModelLint), KindModelLint},
		{errors.New("plain failure"), KindInternal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

func TestClassifyAggregateWorst(t *testing.T) {
	agg := ErrorList{
		fmt.Errorf("a: %w", ErrCancelled),
		fmt.Errorf("b: %w", ErrFaultInjected),
	}
	if got := Classify(agg); got != KindFaultInjected {
		t.Errorf("Classify(cancelled+fault) = %s, want %s", got, KindFaultInjected)
	}
	withInternal := ErrorList{agg, errors.New("broken")}
	if got := Classify(withInternal); got != KindInternal {
		t.Errorf("Classify(nested with internal) = %s, want %s", got, KindInternal)
	}
}

func TestErrorListIsTransparent(t *testing.T) {
	var c Collector
	c.Add(nil)
	c.Add(fmt.Errorf("p1: %w", ErrCancelled))
	c.Add(fmt.Errorf("p2: %w", ErrBudgetExhausted))
	err := c.Err()
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("errors.Is does not see through ErrorList: %v", err)
	}
	if errors.Is(err, ErrCasePanic) {
		t.Error("errors.Is matched an absent sentinel")
	}
}

func TestCollectorSingleAndEmpty(t *testing.T) {
	var empty Collector
	if empty.Err() != nil {
		t.Errorf("empty collector Err = %v, want nil", empty.Err())
	}
	var one Collector
	sentinel := errors.New("only")
	one.Add(sentinel)
	if one.Err() != sentinel {
		t.Errorf("single-error collector should return the error unwrapped, got %v", one.Err())
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{fmt.Errorf("x: %w", ErrCancelled), ExitCancelled},
		{fmt.Errorf("x: %w", ErrFaultInjected), ExitFaultInjected},
		{fmt.Errorf("x: %w", ErrBudgetExhausted), ExitBudgetExhausted},
		{fmt.Errorf("x: %w", ErrCasePanic), ExitCasePanic},
		{fmt.Errorf("x: %w", ErrModelLint), ExitModelLint},
		{errors.New("plain"), ExitInternal},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestClassifyWrappedMultiErrorChains pins the aggregate semantics the
// CLI's manifest and exit code rely on: a degraded catalogue run whose
// ErrorList mixes cancellation with a budget trip must classify (and
// exit) as the more severe budget exhaustion, however deeply each
// member is wrapped.
func TestClassifyWrappedMultiErrorChains(t *testing.T) {
	cancelled := fmt.Errorf("prochecker: catalogue stopped: %w",
		fmt.Errorf("report: %w", ErrCancelled))
	budget := fmt.Errorf("prochecker: verifying S40: %w",
		fmt.Errorf("cegar: %w", fmt.Errorf("mc: %w", ErrBudgetExhausted)))

	cases := []struct {
		name     string
		err      error
		want     Kind
		wantExit int
	}{
		{"list cancelled+budget", ErrorList{cancelled, budget}, KindBudgetExhausted, ExitBudgetExhausted},
		{"list budget+cancelled (order-insensitive)", ErrorList{budget, cancelled}, KindBudgetExhausted, ExitBudgetExhausted},
		{"joined cancelled+budget", errors.Join(cancelled, budget), KindBudgetExhausted, ExitBudgetExhausted},
		{"wrapped list", fmt.Errorf("partial catalogue: %w", ErrorList{cancelled, budget}), KindBudgetExhausted, ExitBudgetExhausted},
		{"nested list in list", ErrorList{ErrorList{cancelled}, ErrorList{budget}}, KindBudgetExhausted, ExitBudgetExhausted},
		{"cancelled+panic", ErrorList{cancelled, fmt.Errorf("case: %w", ErrCasePanic)}, KindCasePanic, ExitCasePanic},
		{"panic+lint (lint is worse)", ErrorList{fmt.Errorf("case: %w", ErrCasePanic), fmt.Errorf("gate: %w", ErrModelLint)}, KindModelLint, ExitModelLint},
		{"cancelled only", ErrorList{cancelled, fmt.Errorf("also: %w", context.DeadlineExceeded)}, KindCancelled, ExitCancelled},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %s, want %s", tc.name, got, tc.want)
		}
		if got := ExitCode(tc.err); got != tc.wantExit {
			t.Errorf("%s: ExitCode = %d, want %d", tc.name, got, tc.wantExit)
		}
	}
}

// TestCollectorAggregatesWrappedChains drives the same mix through the
// Collector, the way CheckAllContext actually builds its error.
func TestCollectorAggregatesWrappedChains(t *testing.T) {
	var c Collector
	c.Add(fmt.Errorf("S06: %w", fmt.Errorf("deadline: %w", ErrCancelled)))
	c.Add(fmt.Errorf("S40: %w", fmt.Errorf("bound: %w", ErrBudgetExhausted)))
	err := c.Err()
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("aggregate lost a member: %v", err)
	}
	if got := Classify(err); got != KindBudgetExhausted {
		t.Errorf("Classify = %s, want %s", got, KindBudgetExhausted)
	}
	if got := ExitCode(err); got != ExitBudgetExhausted {
		t.Errorf("ExitCode = %d, want %d", got, ExitBudgetExhausted)
	}
	if got := Classify(fmt.Errorf("outer: %w", err)); got != KindBudgetExhausted {
		t.Errorf("Classify(wrapped aggregate) = %s, want %s", got, KindBudgetExhausted)
	}
}

func TestCancelledHelper(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !Cancelled(fmt.Errorf("run: %w", ctx.Err())) {
		t.Error("context.Canceled not recognised as cancellation")
	}
	if Cancelled(errors.New("other")) {
		t.Error("plain error recognised as cancellation")
	}
}

// TestFanOutDispatchAndStop: every index runs once, in order on one
// worker; once ctx is done no further index is dispatched, and ran says
// exactly which indices were called.
func TestFanOutDispatchAndStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var order []int
		ran := FanOut(context.Background(), 10, workers, func(i int) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
		if len(order) != 10 || !reflect.DeepEqual(ran, []bool{true, true, true, true, true, true, true, true, true, true}) {
			t.Errorf("workers=%d: called %v, ran %v; want every index once", workers, order, ran)
		}
		if workers == 1 && !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
			t.Errorf("one worker called %v, want list order", order)
		}

		ctx, cancel := context.WithCancel(context.Background())
		called := make([]bool, 10)
		ran = FanOut(ctx, len(called), workers, func(i int) {
			called[i] = true
			if i == 2 {
				cancel()
			}
		})
		if !reflect.DeepEqual(ran, called) {
			t.Errorf("workers=%d: ran %v, but called %v", workers, ran, called)
		}
		if workers == 1 && !reflect.DeepEqual(ran, []bool{true, true, true, false, false, false, false, false, false, false}) {
			t.Errorf("one worker ran %v after cancelling at index 2, want 0..2 only", ran)
		}
		if ran = FanOut(ctx, 10, workers, func(int) { t.Error("called under a cancelled context") }); ran[0] {
			t.Errorf("workers=%d: ran %v under a cancelled context", workers, ran)
		}
	}
}
