package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wiki"
)

// TestSaveDigestGolden pins the snapshot bytes: the SHA-256 of
// Session.Save over the small corpus, warmed on both of the paper's
// pairs, with the header's creation time zeroed. Any change to what a
// snapshot holds or how it is encoded fails here, so a refactor of the
// cached artifacts that claims "no format change" is checked, not
// assumed. Regenerate with:
//
//	go test ./internal/service -run TestSaveDigestGolden -update
func TestSaveDigestGolden(t *testing.T) {
	s := New(smallCorpus(t))
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		if _, err := s.Match(context.Background(), pair); err != nil {
			t.Fatalf("match %s: %v", pair, err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data := zeroCreatedAt(buf.Bytes())
	if _, err := store.Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("restamped snapshot does not read back: %v", err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:]) + "\n"

	path := filepath.Join("testdata", "golden", "session_save_small.sha256")
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
		t.Errorf("Session.Save digest = %s, golden %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// zeroCreatedAt returns a copy of a store container with the header's
// creation timestamp set to 0 and the header checksum recomputed, so two
// saves of the same artifacts compare equal byte for byte. The layout
// walked here is store's: magic, version, fingerprint, created-at,
// section count, then per section kind, name, payload length and CRC.
func zeroCreatedAt(data []byte) []byte {
	out := append([]byte(nil), data...)
	clear(out[20:28])
	pos := 32
	for n := binary.LittleEndian.Uint32(out[28:32]); n > 0; n-- {
		pos += 2
		nameLen, k := binary.Uvarint(out[pos:])
		pos += k + int(nameLen)
		_, k = binary.Uvarint(out[pos:])
		pos += k + 4
	}
	binary.LittleEndian.PutUint32(out[pos:], crc32.ChecksumIEEE(out[:pos]))
	return out
}
