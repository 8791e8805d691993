package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/synth"
)

// TestEditionsSnapshotGolden pins a cold pivot matchall at dump scale:
// the 12-edition fixture (synth.DefaultEditions) with four times the
// entities, seed 1. At that size most type builds take the Gram route
// of linalg.SparseTruncatedSVD on rank-deficient occurrence matrices,
// which the small-corpus goldens never reach. Two SHA-256 digests are
// pinned: the encoded response with its elapsed times and cache
// counters zeroed, and Session.Save with the creation time zeroed.
// Regenerate with:
//
//	go test ./internal/service -run TestEditionsSnapshotGolden -update
func TestEditionsSnapshotGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dump-scale matchall is slow; skipped under -short")
	}
	ec := synth.DefaultEditions()
	ec.EntitiesPerType *= 4
	ec.Seed = 1
	corpus, _, err := synth.Editions(ec)
	if err != nil {
		t.Fatal(err)
	}
	s := New(corpus)
	resp, err := s.ServeMatchAll(context.Background(), protocol.MatchRequest{All: true})
	if err != nil {
		t.Fatalf("matchall: %v", err)
	}
	for _, p := range resp.Pairs {
		if p.Error != "" {
			t.Fatalf("pair %s: %s", p.Pair, p.Error)
		}
	}
	resp.ElapsedMS = 0
	resp.Cache = protocol.CacheStats{}
	for i := range resp.Pairs {
		resp.Pairs[i].ElapsedMS = 0
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(resp); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatalf("Save: %v", err)
	}
	respSum := sha256.Sum256(enc.Bytes())
	saveSum := sha256.Sum256(zeroCreatedAt(saved.Bytes()))
	got := "response " + hex.EncodeToString(respSum[:]) + "\n" +
		"save " + hex.EncodeToString(saveSum[:]) + "\n"

	path := filepath.Join("testdata", "golden", "editions_x4_seed1.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (record it with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("editions digests:\n%s\ngolden:\n%s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
