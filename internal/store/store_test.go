package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/lsi"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	snapOnce sync.Once
	snapMem  *Snapshot
	snapRaw  []byte
)

// testSnapshot builds one realistic snapshot from the small synthetic
// corpus: both pair artifact sets and every matched type's workspace and
// LSI model — the same artifacts a warm session would hold.
func testSnapshot(t testing.TB) (*Snapshot, []byte) {
	t.Helper()
	snapOnce.Do(func() {
		c, _, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			panic(err)
		}
		cfg := core.DefaultConfig()
		snap := &Snapshot{
			Fingerprint: c.Fingerprint(),
			CreatedAt:   time.Unix(1700000000, 123456789),
			Config:      cfg,
		}
		for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
			types := core.MatchEntityTypes(c, pair)
			d := dict.Build(c, pair.A, pair.B)
			snap.Pairs = append(snap.Pairs, PairArtifacts{Pair: pair, Types: types, Dict: d})
			for _, tp := range types {
				td := sim.BuildTypeData(c, pair, tp[0], tp[1], d)
				model := lsi.Build(td.Duals, cfg.LSIRank, td.Attrs...)
				snap.Types = append(snap.Types, TypeArtifacts{
					Pair: pair, TypeA: tp[0], TypeB: tp[1], TD: td, LSI: model,
				})
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			panic(err)
		}
		snapMem, snapRaw = snap, buf.Bytes()
	})
	if snapMem == nil {
		t.Fatal("snapshot setup failed")
	}
	return snapMem, snapRaw
}

func TestRoundTrip(t *testing.T) {
	want, raw := testSnapshot(t)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("fingerprint %x != %x", got.Fingerprint, want.Fingerprint)
	}
	if !got.CreatedAt.Equal(want.CreatedAt) {
		t.Errorf("createdAt %v != %v", got.CreatedAt, want.CreatedAt)
	}
	if got.Config != want.Config {
		t.Errorf("config %+v != %+v", got.Config, want.Config)
	}
	if len(got.Pairs) != len(want.Pairs) || len(got.Types) != len(want.Types) {
		t.Fatalf("got %d pairs / %d types, want %d / %d",
			len(got.Pairs), len(got.Types), len(want.Pairs), len(want.Types))
	}
	for i, wp := range want.Pairs {
		gp := got.Pairs[i]
		if gp.Pair != wp.Pair || len(gp.Types) != len(wp.Types) {
			t.Fatalf("pair %d: %v (%d types) != %v (%d types)", i, gp.Pair, len(gp.Types), wp.Pair, len(wp.Types))
		}
		if gp.Dict.Len() != wp.Dict.Len() {
			t.Errorf("pair %v: dict %d entries != %d", wp.Pair, gp.Dict.Len(), wp.Dict.Len())
		}
		ge, we := gp.Dict.Entries(), wp.Dict.Entries()
		for k := range we {
			if ge[k] != we[k] {
				t.Fatalf("pair %v: dict entry %d: %v != %v", wp.Pair, k, ge[k], we[k])
			}
		}
	}
	// Restored type artifacts must score every attribute pair
	// bit-identically.
	for i, wt := range want.Types {
		gt := got.Types[i]
		if gt.Pair != wt.Pair || gt.TypeA != wt.TypeA || gt.TypeB != wt.TypeB {
			t.Fatalf("type %d: %v/%s~%s != %v/%s~%s",
				i, gt.Pair, gt.TypeA, gt.TypeB, wt.Pair, wt.TypeA, wt.TypeB)
		}
		if len(gt.TD.Attrs) != len(wt.TD.Attrs) {
			t.Fatalf("type %s: %d attrs != %d", wt.TypeA, len(gt.TD.Attrs), len(wt.TD.Attrs))
		}
		for _, p := range wt.TD.AllPairs() {
			i, j := p[0], p[1]
			if math.Float64bits(gt.TD.VSim(i, j)) != math.Float64bits(wt.TD.VSim(i, j)) {
				t.Fatalf("type %s: VSim(%d,%d) differs", wt.TypeA, i, j)
			}
			if math.Float64bits(gt.TD.LSim(i, j)) != math.Float64bits(wt.TD.LSim(i, j)) {
				t.Fatalf("type %s: LSim(%d,%d) differs", wt.TypeA, i, j)
			}
			if math.Float64bits(gt.TD.Grouping(i, j)) != math.Float64bits(wt.TD.Grouping(i, j)) {
				t.Fatalf("type %s: Grouping(%d,%d) differs", wt.TypeA, i, j)
			}
		}
		if gt.LSI.Len() != wt.LSI.Len() || gt.LSI.Rank() != wt.LSI.Rank() {
			t.Fatalf("type %s: model %d/%d != %d/%d",
				wt.TypeA, gt.LSI.Len(), gt.LSI.Rank(), wt.LSI.Len(), wt.LSI.Rank())
		}
		for i := 0; i < wt.LSI.Len(); i++ {
			for j := 0; j < wt.LSI.Len(); j++ {
				if math.Float64bits(gt.LSI.Score(i, j)) != math.Float64bits(wt.LSI.Score(i, j)) {
					t.Fatalf("type %s: LSI score (%d,%d) differs", wt.TypeA, i, j)
				}
			}
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	snap, raw := testSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Error("two writes of the same snapshot produced different bytes")
	}
}

// TestTruncated cuts the snapshot at a spread of lengths; every prefix
// must fail with a typed error and never yield a snapshot.
func TestTruncated(t *testing.T) {
	_, raw := testSnapshot(t)
	lengths := []int{0, 4, len(Magic), headerSize - 1, headerSize, headerSize + 3}
	for cut := headerSize; cut < len(raw); cut += len(raw) / 97 {
		lengths = append(lengths, cut)
	}
	lengths = append(lengths, len(raw)-1)
	for _, n := range lengths {
		snap, err := Read(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes: no error", n, len(raw))
		}
		if snap != nil {
			t.Fatalf("truncation at %d: partial snapshot returned", n)
		}
		var ce *ChecksumError
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: untyped error %v", n, err)
		}
	}
}

// TestFlippedBytes flips single bytes across the whole file; every flip
// must be caught by a checksum (or a structural check) — never decode.
func TestFlippedBytes(t *testing.T) {
	_, raw := testSnapshot(t)
	step := len(raw) / 211
	if step < 1 {
		step = 1
	}
	for pos := 0; pos < len(raw); pos += step {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		snap, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipped byte at %d/%d: accepted", pos, len(raw))
		}
		if snap != nil {
			t.Fatalf("flipped byte at %d: partial snapshot returned", pos)
		}
	}
}

func TestFutureVersion(t *testing.T) {
	_, raw := testSnapshot(t)
	mut := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(mut[8:], Version+1)
	_, err := Read(bytes.NewReader(mut))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("future version: got %v, want VersionError", err)
	}
	if ve.Got != Version+1 || ve.Want != Version {
		t.Errorf("VersionError = %+v", ve)
	}
}

func TestBadMagic(t *testing.T) {
	_, raw := testSnapshot(t)
	mut := append([]byte(nil), raw...)
	mut[0] = 'X'
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := Read(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage: got %v", err)
	}
}

func TestTrailingGarbage(t *testing.T) {
	_, raw := testSnapshot(t)
	mut := append(append([]byte(nil), raw...), "extra"...)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing garbage: got %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	snap, raw := testSnapshot(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "artifacts.wmsnap")

	// A failing write must leave neither the target nor temp litter.
	boom := fmt.Errorf("disk on fire")
	err := WriteFile(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("failed write left %d files behind", len(entries))
	}

	// A successful write must land atomically and read back verbatim.
	if err := WriteFile(path, func(w io.Writer) error { return Write(w, snap) }); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Error("file contents differ from direct Write output")
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// Overwriting an existing snapshot must also succeed (rename over).
	if err := WriteFile(path, func(w io.Writer) error { return Write(w, snap) }); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
}

// TestFilterPairs: the shard filter drops exactly the rejected pairs'
// sections, in place, leaving fingerprint and config for the full-corpus
// validation a replica still performs.
func TestFilterPairs(t *testing.T) {
	snap, raw := testSnapshot(t)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got.FilterPairs(func(p wiki.LanguagePair) bool { return p == wiki.PtEn })
	if len(got.Pairs) != 1 || got.Pairs[0].Pair != wiki.PtEn {
		t.Fatalf("filtered pairs = %+v, want only pt-en", got.Pairs)
	}
	for _, typ := range got.Types {
		if typ.Pair != wiki.PtEn {
			t.Errorf("type section for unowned pair %s survived the filter", typ.Pair)
		}
	}
	if got.Fingerprint != snap.Fingerprint {
		t.Error("filter changed the fingerprint")
	}

	// nil keeps everything; rejecting everything empties both sections.
	full, _ := Read(bytes.NewReader(raw))
	full.FilterPairs(nil)
	if len(full.Pairs) != len(snap.Pairs) || len(full.Types) != len(snap.Types) {
		t.Error("nil keep dropped sections")
	}
	full.FilterPairs(func(wiki.LanguagePair) bool { return false })
	if len(full.Pairs) != 0 || len(full.Types) != 0 {
		t.Error("reject-all keep left sections behind")
	}
}

// TestNonCanonicalCoCounts checks Read rejects, with a typed error, a
// co-occurrence list that sim.Snapshot could not have written: a
// repeated pair or a zero count.
func TestNonCanonicalCoCounts(t *testing.T) {
	for name, co := range map[string][]sim.CoCount{
		"repeat": {{I: 0, J: 1, N: 1}, {I: 0, J: 1, N: 1}},
		"zero":   {{I: 0, J: 1, N: 0}},
	} {
		snap := tinySnapshot()
		ts := snap.Types[0].TD.Snapshot()
		ts.CoDual = co
		snap.Types[0].TD = sim.FromSnapshot(ts)
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		var ce *CorruptError
		if got != nil || !errors.As(err, &ce) {
			t.Errorf("%s: Read = %v, %v; want a CorruptError and no snapshot", name, got != nil, err)
		}
	}
}
