package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// The HTTP golden files under testdata/golden/ are recorded by
// TestV1Golden. Regenerate them with:
//
//	go test ./internal/service -run TestV1Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files from live responses")

// TestHTTPGolden pins the retirement of the pre-v1 GET surface. Each
// subtest replays one request the legacy goldens used to record; every
// one now answers the structured not_found envelope naming its path,
// like any unknown route (the retired_route case of TestV1Golden
// records that body byte for byte). The README maps each retired path
// to its v1 replacement.
func TestHTTPGolden(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(smallCorpus(t))))
	defer srv.Close()
	get, post := http.MethodGet, http.MethodPost
	for _, rc := range []struct{ name, method, path string }{
		{"corpus_stats", get, "/corpus/stats"},
		{"match_pt_en", get, "/match?pair=pt-en"},
		{"match_vn_alias", get, "/match?pair=vn-en"},
		{"match_type_filme", get, "/match/filme?pair=pt-en"},
		{"match_stream_vi_en", get, "/match/stream?pair=vi-en"},
		{"matchall_pivot", get, "/matchall?mode=pivot"},
		{"matchall_direct", get, "/matchall?mode=direct&workers=2"},
		{"matchall_stream", get, "/matchall/stream?mode=pivot&workers=1"},
		{"invalidate_vi", post, "/session/invalidate?lang=vi"},
		{"error_bad_pair", get, "/match?pair=bogus"},
		{"error_unknown_type", get, "/match/no-such-type?pair=pt-en"},
		{"error_bad_mode", get, "/matchall?mode=sideways"},
		{"error_bad_hub", get, "/matchall?hub=EN"},
		{"error_bad_workers", get, "/matchall?workers=-1"},
		{"error_bad_lang", post, "/session/invalidate?lang=UPPER"},
		{"healthz", get, "/healthz"},
		{"invalidate_get", get, "/session/invalidate"},
	} {
		t.Run(rc.name, func(t *testing.T) {
			req, err := http.NewRequest(rc.method, srv.URL+rc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env protocol.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("%s %s: body is not an envelope: %v", rc.method, rc.path, err)
			}
			path, _, _ := strings.Cut(rc.path, "?")
			want := protocol.Error{Code: protocol.CodeNotFound, Message: "no such endpoint " + path}
			if resp.StatusCode != http.StatusNotFound || env.Error == nil || !reflect.DeepEqual(*env.Error, want) {
				t.Errorf("%s %s: status %d, error %+v; want 404 %+v", rc.method, rc.path, resp.StatusCode, env.Error, want)
			}
		})
	}
}

// normalizeJSON decodes, scrubs volatile fields, and re-encodes with
// stable indentation.
func normalizeJSON(t *testing.T, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("invalid JSON body: %v\n%s", err, clip(body))
	}
	scrubVolatile(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// normalizeNDJSON scrubs each line and sorts the lines canonically —
// streams emit in completion order, which is scheduling-dependent. The
// per-line "done" counter is scrubbed for the same reason: it is a
// completion-order position once workers run in parallel.
func normalizeNDJSON(t *testing.T, body []byte) []byte {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("invalid NDJSON line: %v\n%s", err, sc.Text())
		}
		scrubVolatile(v)
		if _, ok := v["done"]; ok {
			v["done"] = 0.0
		}
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(out))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(lines, func(i, j int) bool { return ndjsonKey(lines[i]) < ndjsonKey(lines[j]) })
	return []byte(strings.Join(lines, "\n") + "\n")
}

// ndjsonKey orders stream lines deterministically: final lines last,
// pair/finding/type progress lines by their identifying name.
func ndjsonKey(line string) string {
	var v map[string]any
	if err := json.Unmarshal([]byte(line), &v); err != nil {
		return "z" + line
	}
	for _, finalKey := range []string{"finalMatch", "finalAll", "finalAudit"} {
		if _, ok := v[finalKey]; ok {
			return "y:final"
		}
	}
	if p, ok := v["pair"].(map[string]any); ok {
		return fmt.Sprintf("p:%v", p["pair"])
	}
	if f, ok := v["finding"].(map[string]any); ok {
		return fmt.Sprintf("x:%v:%v:%v", f["entity"], f["cluster"], f["kind"])
	}
	if tr, ok := v["type"].(map[string]any); ok {
		return fmt.Sprintf("t:%v", tr["typeA"])
	}
	return "z" + line
}

// scrubVolatile zeroes timing fields in place, recursively. Everything
// else — correspondences, confidences, cluster shapes, cache counters —
// is deterministic for a fixed request against a fresh session and is
// deliberately kept under golden control.
func scrubVolatile(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "elapsedMs", "uptimeSeconds", "ageSeconds":
				x[k] = 0.0
				continue
			case "createdAt":
				x[k] = "scrubbed"
				continue
			}
			scrubVolatile(val)
		}
	case []any:
		for _, val := range x {
			scrubVolatile(val)
		}
	}
}

func clip(b []byte) []byte {
	const max = 2000
	if len(b) > max {
		return append(append([]byte(nil), b[:max]...), []byte("…")...)
	}
	return b
}
