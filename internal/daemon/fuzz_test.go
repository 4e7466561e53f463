package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSubmit posts arbitrary bodies to a drained server's submit handler.
// Submit validates a request before it refuses it for draining, so no
// campaign ever runs: every body must get a 400 (malformed or invalid),
// a 413 (too large) or a 503 (valid, but draining) with a JSON error
// body, without a panic and without creating a campaign. The seeds are
// the rejection tests' bodies, one oversized body and one valid body.
func FuzzSubmit(f *testing.F) {
	seeds := append(append([]CampaignRequest{
		{Kind: KindFleet, FleetSize: MaxFleetSize + 1, Shards: 2},
		{Repetitions: MaxRepetitions + 1},
		{Seed: 42, Workers: 1, Boards: []string{"GTX 480"}},
	}, badRequests...), badFleetRequests...)
	for _, req := range seeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"faults":"` + strings.Repeat("x", maxRequestBytes) + `"}`))

	srv, err := New(Config{Boards: []string{"GTX 480"}, DataDir: f.TempDir(), Retention: 16})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/campaigns", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: status %d, want 400, 413 or 503", body, rec.Code)
		}
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" {
			t.Fatalf("body %q: status %d with no JSON error (%v): %s", body, rec.Code, err, rec.Body)
		}
		if n := len(srv.Campaigns()); n != 0 {
			t.Fatalf("body %q: a drained server holds %d campaigns", body, n)
		}
	})
}
