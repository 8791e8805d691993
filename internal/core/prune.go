// The pruned scoring path: instead of evaluating vsim/lsim/LSI cosines
// for all O(n²) attribute pairs, one pass over the int8 quantization of
// the LSI embedding (lsi.ScoreBounds) keeps only the pairs whose
// certified upper bound on the LSI score clears the TLSI queue
// threshold, and only those survivors get exact float64 scores. A pair
// whose bound does not clear TLSI cannot enter the queue; queue
// membership is decided purely by the exact rescored LSI value, and
// survivors are enumerated in AllPairs order, so the resulting queue
// (contents, scores, and stable-sort tie order) is byte-identical to
// the exhaustive path. All scratch memory is pooled: a warm match
// performs no per-pair heap allocations here.

package core

import (
	"context"
	"sync"

	"repro/internal/lsi"
	"repro/internal/sim"
)

// prunedAttrLimit bounds the packed (i, j) pair encoding of the
// survivors; types beyond it (far past anything Wikipedia produces)
// fall back to exhaustive scoring.
const prunedAttrLimit = 1 << 15

// usePruned reports whether the pruned path can serve cfg for a type
// with n attributes. It cannot when the caller asked for the exhaustive
// reference, when LSI is ablated (the queue is then not LSI-gated at
// all), or when TLSI is negative (every pair enters the queue, so there
// is nothing to prune).
func (cfg Config) usePruned(n int) bool {
	return !cfg.Exhaustive && !cfg.DisableLSI &&
		cfg.TLSI >= 0 && n > 0 && n < prunedAttrLimit
}

// matchScratch is the reusable workspace of one pruned scoring run.
// Instances live in matchScratchPool; every slice is length-adjusted
// (never reallocated when capacity suffices) so a warm session's
// steady-state match allocates nothing here.
type matchScratch struct {
	rowOf []int32      // TypeData attr index → model row, -1 when absent
	surv  []uint32     // survivor pair codes, packed (i<<16 | j), in order
	ps    []pairScores // exact scores per survivor
	resc  rescorer
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// rescorer computes exact scores for a range of survivors. It
// is a named struct rather than a closure so the serial path (the
// common case, and the one the zero-allocation test pins) can run it
// without materializing a func value.
type rescorer struct {
	sc    *matchScratch
	kern  *sim.Kernel
	model *lsi.Model
	cfg   Config
}

// run scores survivors [lo, hi): the exact LSI value always, and the
// vsim/lsim cosines only for pairs that actually enter the queue —
// exactly the values the exhaustive path would have produced, via the
// byte-identical merge-join kernel. Safe for concurrent calls on
// disjoint ranges.
func (r *rescorer) run(lo, hi int) {
	for s := lo; s < hi; s++ {
		packed := r.sc.surv[s]
		i, j := int(packed>>16), int(packed&0xffff)
		l := r.model.Score(int(r.sc.rowOf[i]), int(r.sc.rowOf[j]))
		var v, ls float64
		if l > r.cfg.TLSI {
			if !r.cfg.DisableVSim {
				v = r.kern.VSim(i, j)
			}
			if !r.cfg.DisableLSim {
				ls = r.kern.LSim(i, j)
			}
		}
		r.sc.ps[s] = pairScores{vsim: v, lsim: ls, lsi: l}
	}
}

// prunedQueue builds the priority queue of Algorithm 1 from the
// survivors: byte-identical to the exhaustive queue, in the same order.
func prunedQueue(ctx context.Context, td *sim.TypeData, model *lsi.Model, cfg Config) ([]Candidate, error) {
	sc := matchScratchPool.Get().(*matchScratch)
	defer func() {
		sc.resc = rescorer{} // drop artifact references before pooling
		matchScratchPool.Put(sc)
	}()
	if err := scorePrunedInto(ctx, td, model, cfg, sc); err != nil {
		return nil, err
	}
	nq := 0
	for s := range sc.surv {
		if sc.ps[s].lsi > cfg.TLSI {
			nq++
		}
	}
	queue := make([]Candidate, 0, nq)
	for s, packed := range sc.surv {
		if sc.ps[s].lsi > cfg.TLSI {
			queue = append(queue, Candidate{
				I: int(packed >> 16), J: int(packed & 0xffff),
				VSim: sc.ps[s].vsim, LSim: sc.ps[s].lsim, LSI: sc.ps[s].lsi,
			})
		}
	}
	return queue, nil
}

// scorePrunedInto runs the bound pass and the exact rescoring of
// survivors into sc. Split from prunedQueue so the allocation
// regression test can drive it with a retained scratch and assert the
// warm path allocates nothing.
func scorePrunedInto(ctx context.Context, td *sim.TypeData, model *lsi.Model, cfg Config, sc *matchScratch) error {
	n := len(td.Attrs)
	kern := td.Kernel()
	model.Quantized() // build outside the tight loop

	sc.rowOf = growI32(sc.rowOf, n)
	for i, a := range td.Attrs {
		if r, ok := model.Index[a]; ok {
			sc.rowOf[i] = int32(r)
		} else {
			sc.rowOf[i] = -1 // unknown to the model: exact score is 0
		}
	}

	// Bound every pair in lexicographic (i, j) order — the AllPairs
	// order the exhaustive queue is built in, which preserves
	// stable-sort tie order downstream. Pairs unknown to the model score
	// exactly 0 and never survive.
	sc.surv = sc.surv[:0]
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ri := sc.rowOf[i]
		if ri < 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			rj := sc.rowOf[j]
			if rj < 0 {
				continue
			}
			if _, hi := model.ScoreBounds(int(ri), int(rj)); hi > cfg.TLSI {
				sc.surv = append(sc.surv, uint32(i)<<16|uint32(j))
			}
		}
	}

	// Exact rescoring of the survivors.
	sc.ps = growPS(sc.ps, len(sc.surv))
	sc.resc = rescorer{sc: sc, kern: kern, model: model, cfg: cfg}
	if len(sc.surv) < minParallelRescore {
		sc.resc.run(0, len(sc.surv))
		return ctx.Err()
	}
	return scorePairsCtx(ctx, len(sc.surv), sc.resc.run)
}

// minParallelRescore mirrors scorePairsCtx's serial cutoff: below it the
// rescorer runs inline, with no func value and no goroutines.
const minParallelRescore = 512

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growPS(s []pairScores, n int) []pairScores {
	if cap(s) < n {
		return make([]pairScores, n)
	}
	return s[:n]
}
