package daemon

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/obs"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

// heapObjects reads the heap's live-plus-unswept object bytes.
func heapObjects(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// pollHeapPeak samples the heap every millisecond until stop closes,
// then once more, and sends the peak. runtime/metrics reads do not stop
// the world.
func pollHeapPeak(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var p uint64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		p = max(p, heapObjects(s))
		select {
		case <-stop:
			peak <- max(p, heapObjects(s))
			return
		case <-tick.C:
		}
	}
}

// runCampaign submits a request in-process and waits for it to complete.
func runCampaign(t *testing.T, srv *Server, req CampaignRequest) CampaignStatus {
	t.Helper()
	c, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	st := c.Status()
	if st.State != StateCompleted {
		t.Fatalf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st
}

// TestDaemonStaysBounded is the long-running daemon's memory contract:
// after the 1,000-device fleet campaign the serve benchmark runs at
// set-up, twenty Table IV cohorts in a row leave the heap where the
// fourth left it. A finished campaign keeps only its status, with its
// report and triage on disk, and the recorder keeps no tracks, so
// nothing a campaign measured outlives it but counters.
func TestDaemonStaysBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the heap ceilings are for an uninstrumented build; -race shadows every allocation")
	}
	const (
		ceiling   = 32 << 20
		campaigns = 20
		growth    = 1 << 20
	)
	srv, _, _ := newTestServer(t)
	stop := make(chan struct{})
	peakCh := make(chan uint64, 1)
	go pollHeapPeak(stop, peakCh)
	defer func() {
		if stop != nil {
			close(stop)
		}
	}()

	runCampaign(t, srv, CampaignRequest{Kind: KindFleet, Seed: 42, Workers: 2, FleetSize: 1000,
		Shards: 2, Benchmarks: []string{"backprop", "streamcluster"}})
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var fourth, last uint64
	for i := 1; i <= campaigns; i++ {
		runCampaign(t, srv, CampaignRequest{Seed: 42 + int64(i%2), Workers: 2, Repetitions: 3})
		if i == 4 || i == campaigns {
			runtime.GC()
			last = heapObjects(s)
			if i == 4 {
				fourth = last
			}
		}
	}
	close(stop)
	stop = nil
	peak := <-peakCh
	t.Logf("peak heap %.1f MiB; after GC: %.2f MiB at campaign 4, %.2f MiB at campaign %d",
		float64(peak)/(1<<20), float64(fourth)/(1<<20), float64(last)/(1<<20), campaigns)
	if peak > ceiling {
		t.Errorf("peak heap %.1f MiB exceeds the %d MiB ceiling", float64(peak)/(1<<20), ceiling>>20)
	}
	if last > fourth+growth {
		t.Errorf("heap after GC grew by %.2f MiB from campaign 4 to campaign %d, want at most %d MiB",
			float64(last-fourth)/(1<<20), campaigns, growth>>20)
	}
}

// TestDaemonEmptyBoardsRunsServedFleet: a request that names no board
// runs on the served fleet, not on the paper's four boards. A GTX 480
// server plans only GTX 480's cells and renders one board column.
func TestDaemonEmptyBoardsRunsServedFleet(t *testing.T) {
	_, ts, _ := newTestServer(t, "GTX 480")
	code, st, body := postCampaign(t, ts.URL, CampaignRequest{Seed: 42, Workers: 1, Benchmarks: []string{"backprop"}})
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	final := waitState(t, ts.URL, st.ID, StateCompleted)
	if want := int64(len(clock.ValidPairs(arch.GTX480()))); final.Progress.Planned != want {
		t.Errorf("planned %d cells, want GTX 480's %d", final.Progress.Planned, want)
	}
	_, rep := get(t, ts.URL+"/api/v1/campaigns/"+st.ID+"/report")
	header := ""
	for _, line := range strings.Split(rep, "\n") {
		if strings.Contains(line, "Benchmark") {
			header = line
			break
		}
	}
	if !strings.Contains(header, "GTX 480") || strings.Count(header, "GTX") != 1 {
		t.Errorf("report header %q, want the GTX 480 column alone:\n%s", header, rep)
	}
}

// TestDaemonServesFinishedFiles: /report and /triage serve the files the
// campaign left beside its journal, byte for byte, and the triage
// summary a finished campaign keeps is copied out to each caller.
func TestDaemonServesFinishedFiles(t *testing.T) {
	srv, ts, dir := newTestServer(t, "GTX 480")
	code, st, body := postCampaign(t, ts.URL, CampaignRequest{Seed: 42, Workers: 1, Repetitions: 2,
		Benchmarks: []string{"backprop", "gaussian"}})
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	final := waitState(t, ts.URL, st.ID, StateCompleted)
	if final.Triage == nil || final.Triage.Summary == "" {
		t.Fatalf("status carries no triage summary: %+v", final.Triage)
	}
	c, _ := srv.Campaign(st.ID)
	mine := c.Status().Triage
	mine.Publishable = !mine.Publishable
	for class := range mine.Counts {
		mine.Counts[class] = -1
	}
	if again := c.Status().Triage; !reflect.DeepEqual(again, final.Triage) {
		t.Errorf("changing a returned triage summary changed the campaign's: %+v, want %+v", again, final.Triage)
	}
	for route, ext := range map[string]string{"report": reportExt, "triage": triageExt} {
		code, served := get(t, ts.URL+"/api/v1/campaigns/"+st.ID+"/"+route)
		onDisk, err := os.ReadFile(filepath.Join(dir, "campaign-"+st.ID+ext))
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK || served != string(onDisk) {
			t.Errorf("/%s: %d, %d bytes served, %d on disk", route, code, len(served), len(onDisk))
		}
	}
}

// TestDaemonExpositionMatchesSession: the daemon's recorder keeps no
// tracks, yet its per-board sweep series — characterize_sim_microseconds_total
// among them, which reads the jobs' cursors — equal those of the same
// sweep run through a session with an event-keeping recorder.
func TestDaemonExpositionMatchesSession(t *testing.T) {
	srv, _, _ := newTestServer(t, "GTX 480")
	benches := []string{"backprop", "gaussian"}
	runCampaign(t, srv, CampaignRequest{Seed: 42, Workers: 1, Repetitions: 2, Benchmarks: benches})
	var daemonText bytes.Buffer
	if err := srv.Recorder().WriteMetrics(&daemonText); err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	cfg := session.DefaultConfig()
	cfg.Seed, cfg.Workers, cfg.Repetitions = 42, 1, 2
	cfg.Boards = []string{"GTX 480"}
	cfg.Checkpoint = filepath.Join(t.TempDir(), "ref.journal")
	cfg.Obs = rec
	sess, err := session.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bs []*workloads.Benchmark
	for _, b := range benches {
		bs = append(bs, workloads.ByName(b))
	}
	if _, err := sess.Repeat(context.Background(), bs); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	var sessText bytes.Buffer
	if err := rec.WriteMetrics(&sessText); err != nil {
		t.Fatal(err)
	}

	perBoard := func(text string) string {
		var out []string
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, `{board="GTX 480"}`) {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n")
	}
	got, want := perBoard(daemonText.String()), perBoard(sessText.String())
	if !strings.Contains(want, "characterize_sim_microseconds_total") {
		t.Fatalf("the session exposition carries no cursor metric:\n%s", want)
	}
	if got != want {
		t.Errorf("daemon per-board series differ from the session's:\n--- daemon ---\n%s\n--- session ---\n%s", got, want)
	}
}
