package service

import (
	"context"
	"testing"

	"repro/internal/wiki"
)

// warmMatchAllocCeiling bounds the allocations of one warm pt–en
// Session.Match over synth.SmallConfig(): 1.25× the 866 allocations
// measured with go1.24 on linux/amd64 (13,139 before inductive grouping
// walked co-occurrence rows). Allocations per op are
// deterministic up to goroutine reuse, so a regression on the warm
// path — a map or a per-candidate slice creeping back into Algorithm 1
// — fails here without a timing benchmark.
const warmMatchAllocCeiling = 1083

// TestWarmMatchAllocs is the allocation gate on the warm unary path:
// every artifact is cached, so what is left is Algorithm 1 itself.
func TestWarmMatchAllocs(t *testing.T) {
	s := New(smallCorpus(t))
	ctx := context.Background()
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatalf("warm-up match: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Match(ctx, wiki.PtEn); err != nil {
			t.Errorf("match: %v", err)
		}
	})
	t.Logf("warm pt–en Session.Match: %.0f allocs/op (ceiling %d)", allocs, warmMatchAllocCeiling)
	if allocs > warmMatchAllocCeiling {
		t.Errorf("warm pt–en Session.Match allocates %.0f times per call, ceiling %d", allocs, warmMatchAllocCeiling)
	}
}
