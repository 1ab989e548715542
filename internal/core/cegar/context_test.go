package cegar

import (
	"context"
	"errors"
	"testing"

	"prochecker/internal/core/threat"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

func composedForTest(t *testing.T) *threat.Composed {
	t.Helper()
	composed, err := threat.Compose(threat.Config{
		Name:                 "IMP/LTEInspector",
		UE:                   ltemodels.LTEInspectorUE(),
		MME:                  ltemodels.MME(),
		SuperviseGUTIRealloc: true,
	})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	return composed
}

func firstMCProperty(t *testing.T) mc.Property {
	t.Helper()
	// A trivially-true invariant: verifies in one iteration when live,
	// and the cancelled context must stop the loop before the checker
	// ever runs.
	return mc.Invariant{PropName: "ctx-test", Holds: ts.And{}}
}

func TestVerifyContextAlreadyCancelled(t *testing.T) {
	composed := composedForTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := VerifyContext(ctx, composed, firstMCProperty(t), Config{PreCapture: true})
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if out.Iterations != 0 {
		t.Errorf("cancelled run still iterated %d times", out.Iterations)
	}
	if out.Verified || out.Attack != nil {
		t.Error("cancelled run reported a verdict")
	}
}
