package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	smallOnce    sync.Once
	smallResults map[string]*core.Result
)

// smallMatches matches pt–en and vi–en over synth.SmallConfig() once,
// with revise on ("final") and off ("certain": the match set is then the
// certain-stage set ReviseUncertain scores against).
func smallMatches(t *testing.T) map[string]*core.Result {
	t.Helper()
	smallOnce.Do(func() {
		c, _, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		certain := core.DefaultConfig()
		certain.DisableRevise = true
		smallResults = map[string]*core.Result{}
		for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
			smallResults["certain "+pair.String()] = core.NewMatcher(certain).Match(c, pair)
			smallResults["final "+pair.String()] = core.NewMatcher(core.DefaultConfig()).Match(c, pair)
		}
	})
	if smallResults == nil {
		t.Fatal("small corpus setup failed")
	}
	return smallResults
}

// referenceInductiveGrouping is the O(|Attrs|) scan InductiveGrouping
// replaced: collect every matched attribute co-occurring with i (and
// with j) in ascending index order, then average the grouping products
// over the aligned (ca, c′a) pairs.
func referenceInductiveGrouping(td *sim.TypeData, i, j int, m sim.Matched) float64 {
	var caIdx, cbIdx []int
	for k := range td.Attrs {
		if k == i || k == j || !m.Contains(k) {
			continue
		}
		if td.Attrs[k].Lang == td.Attrs[i].Lang && td.CoOccurLang(i, k) > 0 {
			caIdx = append(caIdx, k)
		}
		if td.Attrs[k].Lang == td.Attrs[j].Lang && td.CoOccurLang(j, k) > 0 {
			cbIdx = append(cbIdx, k)
		}
	}
	var sum float64
	n := 0
	for _, ca := range caIdx {
		for _, cb := range cbIdx {
			if !m.Aligned(ca, cb) {
				continue
			}
			sum += td.Grouping(i, ca) * td.Grouping(j, cb)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// partition is a Matched over a fixed component per attribute (-1 for
// unmatched), for match sets the matcher would not build itself.
type partition []int

func (p partition) Contains(i int) bool   { return p[i] >= 0 }
func (p partition) Aligned(i, j int) bool { return p[i] >= 0 && p[i] == p[j] }

// TestInductiveGroupingMatchesReference checks the row walk against the
// reference scan to the bit, for every ordered attribute pair of every
// aligned type, and that it allocates nothing. Besides the matcher's own
// match set it tries one match holding every attribute, where
// same-language neighbours (ca = a′ among them) are aligned too, and a
// seeded random partition.
func TestInductiveGroupingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, res := range smallMatches(t) {
		nonzero := 0
		for _, tp := range res.Types {
			tr := res.PerType[tp]
			td, ms := tr.TD, tr.Matches
			one, random := make(partition, len(td.Attrs)), make(partition, len(td.Attrs))
			for i := range random {
				random[i] = rng.Intn(4) - 1
			}
			bi, bj, best := -1, -1, 0.0
			for i := range td.Attrs {
				for j := range td.Attrs {
					for _, m := range []sim.Matched{ms, one, random} {
						got := td.InductiveGrouping(i, j, m)
						want := referenceInductiveGrouping(td, i, j, m)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %v %T: eg(%d,%d) = %v, reference %v", name, tp, m, i, j, got, want)
						}
					}
					if got := td.InductiveGrouping(i, j, ms); got > best {
						bi, bj, best = i, j, got
					}
				}
			}
			if bi < 0 {
				continue
			}
			nonzero++
			if allocs := testing.AllocsPerRun(50, func() { td.InductiveGrouping(bi, bj, ms) }); allocs != 0 {
				t.Errorf("%s %v: InductiveGrouping allocates %v per call, want 0", name, tp, allocs)
			}
		}
		if nonzero == 0 {
			t.Errorf("%s: no type has a nonzero grouping score; the check is vacuous", name)
		}
	}
}

// TestCoOccurrenceRows checks the co-occurrence lookups of every aligned
// type: symmetric, 0 on the diagonal, CoOccurLang 0 across languages,
// and every snapshot triple readable back through the lookup.
func TestCoOccurrenceRows(t *testing.T) {
	for name, res := range smallMatches(t) {
		for _, tp := range res.Types {
			td := res.PerType[tp].TD
			snap := td.Snapshot()
			nLang, nDual := 0, 0
			for i := range td.Attrs {
				if td.CoOccurLang(i, i) != 0 || td.CoOccurDual(i, i) != 0 {
					t.Fatalf("%s %v: attribute %d co-occurs with itself", name, tp, i)
				}
				for j := range td.Attrs {
					lij, dij := td.CoOccurLang(i, j), td.CoOccurDual(i, j)
					if lij != td.CoOccurLang(j, i) || dij != td.CoOccurDual(j, i) {
						t.Fatalf("%s %v: co-occurrence of (%d,%d) is not symmetric", name, tp, i, j)
					}
					if lij != 0 && td.Attrs[i].Lang != td.Attrs[j].Lang {
						t.Fatalf("%s %v: CoOccurLang(%d,%d) = %d across languages", name, tp, i, j, lij)
					}
					if i < j && lij > 0 {
						nLang++
					}
					if i < j && dij > 0 {
						nDual++
					}
				}
			}
			if nLang != len(snap.CoLang) || nDual != len(snap.CoDual) {
				t.Fatalf("%s %v: %d/%d nonzero pairs, snapshot holds %d/%d triples",
					name, tp, nLang, nDual, len(snap.CoLang), len(snap.CoDual))
			}
			for _, c := range snap.CoLang {
				if c.I >= c.J || td.CoOccurLang(c.I, c.J) != c.N {
					t.Fatalf("%s %v: CoLang triple %+v disagrees with the lookup", name, tp, c)
				}
			}
			for _, c := range snap.CoDual {
				if c.I >= c.J || td.CoOccurDual(c.I, c.J) != c.N {
					t.Fatalf("%s %v: CoDual triple %+v disagrees with the lookup", name, tp, c)
				}
			}
		}
	}
}

// TestSnapshotCoCountsRoundTrip checks FromSnapshot(td.Snapshot()) hands
// back the same sorted co-occurrence triples.
func TestSnapshotCoCountsRoundTrip(t *testing.T) {
	for name, res := range smallMatches(t) {
		for _, tp := range res.Types {
			snap := res.PerType[tp].TD.Snapshot()
			back := sim.FromSnapshot(snap).Snapshot()
			if !reflect.DeepEqual(back.CoLang, snap.CoLang) || !reflect.DeepEqual(back.CoDual, snap.CoDual) {
				t.Fatalf("%s %v: co-occurrence triples changed across FromSnapshot", name, tp)
			}
		}
	}
}
