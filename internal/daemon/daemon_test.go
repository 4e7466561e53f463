package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuperf/internal/obs"
	"gpuperf/internal/power"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

func newTestServer(t *testing.T, boards ...string) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := New(Config{Boards: boards, DataDir: dir, Retention: 256, SampleInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts, dir
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func postCampaign(t *testing.T, base string, req CampaignRequest) (int, CampaignStatus, string) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status decode: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, st, string(body)
}

func waitState(t *testing.T, base, id string, want ...string) CampaignStatus {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	for {
		code, body := get(t, base+"/api/v1/campaigns/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var st CampaignStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if st.State == StateFailed {
			t.Fatalf("campaign failed: %s", st.Error)
		}
		select {
		case <-deadline:
			t.Fatalf("campaign %s stuck in %q", id, st.State)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestDaemonEndToEnd is the tentpole acceptance test: a campaign
// submitted over HTTP runs to completion while /metrics is scraped
// concurrently (run under -race in CI), the live exposition carries
// gpuperf_power_watts for all three scopes, the status JSON carries
// progress and triage verdicts, and the checkpoint journal is
// byte-identical to the same campaign run directly through a
// session.Session at the same seed.
func TestDaemonEndToEnd(t *testing.T) {
	srv, ts, dir := newTestServer(t, "GTX 480")

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz: %d", code)
	}

	// Before any campaign: the exposition already carries every scope of
	// every device, at idle.
	_, exp := get(t, ts.URL+"/metrics")
	for _, sc := range power.Scopes() {
		want := `gpuperf_power_watts{device="GTX 480",scope="` + string(sc) + `"}`
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %s:\n%s", want, exp)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(exp)); err != nil {
		t.Fatalf("idle exposition invalid: %v", err)
	}

	// Scrape continuously while the campaign runs.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	scrapeErr := make(chan error, 1)
	go func(stop <-chan struct{}) {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				scrapeErr <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil {
				scrapeErr <- err
				return
			}
			if verr := obs.ValidateExposition(bytes.NewReader(body)); verr != nil {
				scrapeErr <- fmt.Errorf("mid-campaign exposition invalid: %w", verr)
				return
			}
		}
	}(stopScrape)

	req := CampaignRequest{
		Seed:       123,
		Workers:    1,
		Boards:     []string{"GTX 480"},
		Benchmarks: []string{"backprop", "gaussian"},
	}
	code, st, body := postCampaign(t, ts.URL, req)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	final := waitState(t, ts.URL, st.ID, StateCompleted)
	close(stopScrape)
	scrapeWG.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	if final.Progress.Planned == 0 || final.Progress.Done != final.Progress.Planned {
		t.Fatalf("final progress: %+v", final.Progress)
	}
	if final.Triage == nil || !final.Triage.Publishable || final.Triage.Counts["VALID"] == 0 {
		t.Fatalf("triage: %+v", final.Triage)
	}

	// The post-campaign exposition carries campaign samples and all three
	// scopes.
	_, exp = get(t, ts.URL+"/metrics")
	if !strings.Contains(exp, `gpuperf_power_samples_total{device="GTX 480"}`) {
		t.Fatalf("no power samples recorded:\n%s", exp)
	}
	if samples := srv.Collector().Recent("GTX 480", power.ScopeModule); len(samples) == 0 {
		t.Fatal("collector retained no samples")
	}

	// Rendered report over HTTP.
	code, rep := get(t, ts.URL+"/api/v1/campaigns/"+st.ID+"/report")
	if code != 200 || !strings.Contains(rep, "TABLE IV") {
		t.Fatalf("report: %d\n%s", code, rep)
	}
	code, tri := get(t, ts.URL+"/api/v1/campaigns/"+st.ID+"/triage")
	if code != 200 || !strings.Contains(tri, `"cohort"`) {
		t.Fatalf("triage endpoint: %d\n%s", code, tri)
	}

	// Byte-identity: the campaign's journal equals a direct session run
	// at the same seed and configuration.
	refPath := filepath.Join(t.TempDir(), "ref.journal")
	cfg := session.DefaultConfig()
	cfg.Seed = 123
	cfg.Workers = 1
	cfg.Boards = []string{"GTX 480"}
	cfg.Checkpoint = refPath
	sess, err := session.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	benches := []*workloads.Benchmark{workloads.ByName("backprop"), workloads.ByName("gaussian")}
	if _, err := sess.Repeat(context.Background(), benches); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "campaign-"+st.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatalf("campaign journal diverges from direct session run:\n--- daemon (%d bytes) ---\n%s\n--- direct (%d bytes) ---\n%s",
			len(got), got, len(ref), ref)
	}

	// /api/v1/power reports idle and recent samples per scope.
	code, pw := get(t, ts.URL+"/api/v1/power")
	if code != 200 || !strings.Contains(pw, `"GTX 480"`) || !strings.Contains(pw, `"module"`) {
		t.Fatalf("power endpoint: %d\n%s", code, pw)
	}
}

// badRequests are refused with 400 by a server whose fleet is the
// GTX 480 alone.
var badRequests = []CampaignRequest{
	{NoCache: true},
	{Benchmarks: []string{"no-such-bench"}},
	{Boards: []string{"Voodoo 2"}},
	{Boards: []string{"GTX 680"}}, // valid board, outside the fleet
	{Boards: []string{"GTX 480", "GTX 480"}},
	{Kind: "explode"},
	{Faults: "bogus:spec"},
	{MinValid: 2},                     // more valid runs than one repetition
	{Repetitions: 2, MinValid: 3},     // more valid runs than repetitions
	{Kind: KindModel, Repetitions: 4}, // models run once
	{Kind: KindModel, MinValid: 1},    // models are not triaged
	{Workers: -1},
	{MaxRetries: -1},
	{LaunchTimeoutMS: -1},
	{LaunchTimeoutMS: 9_300_000_000_000}, // overflows a time.Duration
}

// TestDaemonRejectsBadRequests pins the 400-path validation.
func TestDaemonRejectsBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, "GTX 480")
	for _, req := range badRequests {
		if code, _, body := postCampaign(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("request %+v: got %d, want 400 (%s)", req, code, body)
		}
	}
	if code, body := get(t, ts.URL+"/api/v1/campaigns/999"); code != http.StatusNotFound {
		t.Errorf("unknown id: %d %s", code, body)
	}
}

// TestDaemonCancelAndDrain: DELETE stops a running campaign at a cell
// boundary with its journal on disk; Drain flips readiness and rejects
// new submissions.
func TestDaemonCancelAndDrain(t *testing.T) {
	srv, ts, dir := newTestServer(t, "GTX 480")
	req := CampaignRequest{Seed: 7, Workers: 1, Boards: []string{"GTX 480"}, Repetitions: 5}
	code, st, body := postCampaign(t, ts.URL, req)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	httpReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	final := waitState(t, ts.URL, st.ID, StateCancelled, StateCompleted)
	if final.State == StateCancelled {
		if _, err := os.Stat(filepath.Join(dir, "campaign-"+st.ID+".journal")); err != nil {
			t.Fatalf("cancelled campaign left no resumable journal: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", code)
	}
	if code, _, _ := postCampaign(t, ts.URL, CampaignRequest{}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d", code)
	}
}

// TestDaemonRejectsOversizedBody: a request body over the limit is
// refused with 413 and starts nothing.
func TestDaemonRejectsOversizedBody(t *testing.T) {
	srv, ts, _ := newTestServer(t, "GTX 480")
	body := `{"faults":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413 (%s)", resp.StatusCode, msg)
	}
	if n := len(srv.Campaigns()); n != 0 {
		t.Errorf("%d campaigns started by a rejected request", n)
	}
}

// TestDaemonRejectsOversizedFleet: fleet_size is bounded from above.
func TestDaemonRejectsOversizedFleet(t *testing.T) {
	_, ts, _ := newTestServer(t, "GTX 680")
	req := CampaignRequest{Kind: KindFleet, FleetSize: MaxFleetSize + 1, Shards: 2}
	if code, _, body := postCampaign(t, ts.URL, req); code != http.StatusBadRequest {
		t.Fatalf("fleet_size %d: got %d, want 400 (%s)", req.FleetSize, code, body)
	}
}

// TestDaemonRejectsTooManyRepetitions: repetitions is bounded from above.
func TestDaemonRejectsTooManyRepetitions(t *testing.T) {
	_, ts, _ := newTestServer(t, "GTX 480")
	req := CampaignRequest{Repetitions: MaxRepetitions + 1}
	if code, _, body := postCampaign(t, ts.URL, req); code != http.StatusBadRequest {
		t.Fatalf("repetitions %d: got %d, want 400 (%s)", req.Repetitions, code, body)
	}
}
