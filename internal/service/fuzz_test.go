package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/protocol"
)

// decodeMatchRequest runs body through the handlers' strict decoder.
func decodeMatchRequest(body []byte) (protocol.MatchRequest, *protocol.Error) {
	var req protocol.MatchRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body))
	return req, DecodeBody(r, &req)
}

// FuzzMatchRequest feeds arbitrary bytes through the request path every
// matching endpoint shares: DecodeBody → Validate → re-encode. It must
// never panic, every rejection must be a typed invalid_argument (or
// payload) error, and a valid request must re-encode to a canonical form
// that decodes and resolves to the same Resolved and re-encodes to the
// same bytes.
func FuzzMatchRequest(f *testing.F) {
	for _, gc := range v1GoldenCases() {
		switch gc.path {
		case "/v1/match", "/v1/matchall", "/v1/stream":
			f.Add([]byte(gc.body))
		}
	}
	// exactScore and candidates are no longer part of the protocol: the
	// strict decoder must reject them as unknown fields.
	f.Add([]byte(`{"pair":"pt-en","exactScore":true}`))
	f.Add([]byte(`{"pair":"pt-en","candidates":4}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req, derr := decodeMatchRequest(body)
		if derr != nil {
			if derr.Code != protocol.CodeInvalidArgument {
				t.Fatalf("decode error code %q: %v", derr.Code, derr)
			}
			return
		}
		res, err := req.Validate()
		if err != nil {
			var perr *protocol.Error
			if !errors.As(err, &perr) || perr.Code != protocol.CodeInvalidArgument {
				t.Fatalf("Validate error is not a typed invalid_argument: %v", err)
			}
			return
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, derr := decodeMatchRequest(canon)
		if derr != nil {
			t.Fatalf("canonical form %s does not decode: %v", canon, derr)
		}
		res2, err := again.Validate()
		if err != nil {
			t.Fatalf("canonical form %s does not validate: %v", canon, err)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Fatalf("canonical form %s resolves differently:\n%+v\n%+v", canon, res, res2)
		}
		if canon2, _ := json.Marshal(again); !bytes.Equal(canon, canon2) {
			t.Fatalf("re-encoding is not canonical: %s vs %s", canon, canon2)
		}
	})
}
