package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuperf/internal/characterize"
	"gpuperf/internal/daemon"
	"gpuperf/internal/obs"
	"gpuperf/internal/validity"
)

const (
	// serveSeeds is how many campaign seeds the closed-loop client cycles
	// through; set-up computes one reference report per seed.
	serveSeeds = 2
	// serveFleetSize is the fleet campaign set-up serves, which leaves the
	// registry as large as a fleet-serving daemon's.
	serveFleetSize = 1000
	// scrapePeriod is the open-loop scraper's schedule: 20 scrapes/s.
	scrapePeriod = 50 * time.Millisecond
	// campaignsPerDaemon bounds how many campaigns one daemon serves
	// before the benchmark restarts it. gpuperfd keeps every campaign's
	// virtual-clock tracks in its shared recorder (~14 MB per Table IV
	// cohort), so an unrestarted daemon's heap grows with every campaign.
	campaignsPerDaemon = 8
	// pollEvery is the closed-loop client's status-poll interval.
	pollEvery = 5 * time.Millisecond
	// collectorSamples counts the power samples the collector fan-out took.
	collectorSamples = "gpuperf_power_samples_total"
)

// serve is gpuperfd in-process: a closed-loop client submits Table IV
// sweep campaigns one at a time and polls each to completion, while an
// open-loop scraper GETs /metrics at 20/s. The process-wide launch cache
// stays warm across campaigns and across daemon restarts, as in a
// long-running daemon.
type serve struct {
	o         options
	setups    int
	seeds     []int64
	refs      map[int64]string
	fleetRef  string
	next      int
	campaigns int       // campaigns the current daemon has served
	restarts  []float64 // seconds per daemon restart

	srv     *daemon.Server
	hs      *http.Server
	served  chan struct{} // closed when the HTTP server's Serve returns
	base    string
	client  *http.Client
	scraper *scraper

	queueMS, samples     map[int64]float64 // per traced op
	last                 *sweepRun
	scrapeLat, scrapeLag []float64 // milliseconds, from stopped scrapers
}

func newServe(o options) *serve {
	s := &serve{o: o, refs: map[int64]string{}, queueMS: map[int64]float64{}, samples: map[int64]float64{}}
	for i := 0; i < serveSeeds; i++ {
		s.seeds = append(s.seeds, o.seed*1000003+int64(i))
	}
	return s
}

// oneConn is an HTTP client holding at most one loopback connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// Setup computes one bit-exact reference report per campaign seed, then
// boots a fresh daemon and serves the set-up fleet campaign through it.
func (s *serve) Setup(ctx context.Context) (string, error) {
	if err := s.stop(); err != nil {
		return "", err
	}
	var all strings.Builder
	for i, seed := range s.seeds {
		path := filepath.Join(s.o.dir, fmt.Sprintf("ref-%d-%d.journal", s.setups, i))
		run, err := runSweep(ctx, nil, 0, nil, sweepConfig(seed, 1, false, path))
		if err != nil {
			return "", err
		}
		s.refs[seed] = digest(run.text)
		all.WriteString(s.refs[seed])
	}
	fleetRef, err := s.start()
	if err != nil {
		return "", err
	}
	s.fleetRef = fleetRef
	all.WriteString(fleetRef)
	return digest(all.String()), nil
}

// Maintain restarts the daemon once it has served campaignsPerDaemon
// campaigns; the restart must serve the same fleet report.
func (s *serve) Maintain(context.Context) (time.Duration, error) {
	if s.campaigns < campaignsPerDaemon {
		return 0, nil
	}
	start := time.Now()
	if err := s.stop(); err != nil {
		return 0, err
	}
	d, err := s.start()
	if err != nil {
		return 0, err
	}
	if d != s.fleetRef {
		return 0, fmt.Errorf("restarted daemon: fleet report %w", errMismatch)
	}
	took := time.Since(start)
	s.restarts = append(s.restarts, took.Seconds())
	return took, nil
}

// start boots a daemon on a loopback listener and serves the fleet
// campaign that sizes its registry, returning the fleet report's digest.
func (s *serve) start() (string, error) {
	s.setups++
	s.campaigns = 0
	srv, err := daemon.New(daemon.Config{DataDir: filepath.Join(s.o.dir, "daemon-"+strconv.Itoa(s.setups))})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // stops the collector; no campaign has started
		return "", err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = oneConn()

	st, err := s.submit(daemon.CampaignRequest{
		Kind: daemon.KindFleet, Seed: s.o.seed, Workers: nproc(),
		FleetSize: serveFleetSize, Shards: 2, Benchmarks: []string{"backprop", "streamcluster"},
	})
	if err != nil {
		return "", err
	}
	if st, _, err = s.await(nil, st); err != nil {
		return "", err
	}
	if st.State != daemon.StateCompleted {
		return "", fmt.Errorf("set-up fleet campaign ended %s: %s", st.State, st.Error)
	}
	rep, err := s.text("/api/v1/campaigns/" + st.ID + "/report")
	if err != nil {
		return "", err
	}
	return digest(rep), nil
}

// stop drains the daemon and shuts its HTTP server down, waiting for
// both; a no-op before the first set-up.
func (s *serve) stop() error {
	if s.srv == nil {
		return nil
	}
	if s.scraper != nil {
		s.scraper.stop()
		lat, lag := s.scraper.stats()
		s.scrapeLat = append(s.scrapeLat, lat...)
		s.scrapeLag = append(s.scrapeLag, lag...)
		s.scraper = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := errors.Join(s.srv.Drain(ctx), s.hs.Shutdown(ctx))
	<-s.served
	s.client.CloseIdleConnections()
	s.srv = nil
	return err
}

// do issues one request; a transport error or non-2xx status fails it.
func (s *serve) do(method, path string, body, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return data, json.Unmarshal(data, out)
	}
	return data, nil
}

func (s *serve) submit(req daemon.CampaignRequest) (daemon.CampaignStatus, error) {
	var st daemon.CampaignStatus
	_, err := s.do(http.MethodPost, "/api/v1/campaigns", req, &st)
	return st, err
}

func (s *serve) text(path string) (string, error) {
	b, err := s.do(http.MethodGet, path, nil, nil)
	return string(b), err
}

// await polls a campaign's status until it is terminal, timing each poll
// into polls. It returns the final status and how long after the call
// the campaign was first seen past pending.
func (s *serve) await(polls *leaf, st daemon.CampaignStatus) (daemon.CampaignStatus, time.Duration, error) {
	start := time.Now()
	queued := time.Duration(-1)
	for {
		t := polls.start()
		_, err := s.do(http.MethodGet, "/api/v1/campaigns/"+st.ID, nil, &st)
		polls.done(t)
		if err != nil {
			return st, queued, err
		}
		if queued < 0 && st.State != daemon.StatePending {
			queued = time.Since(start)
		}
		if st.State != daemon.StatePending && st.State != daemon.StateRunning {
			return st, queued, nil
		}
		time.Sleep(pollEvery)
	}
}

// campaign is one closed-loop op: submit a Table IV sweep campaign, poll
// it to completion and check its report against the seed's reference.
func (s *serve) campaign(tr *tracer, op int64, root *span) (int64, error) {
	if s.scraper == nil {
		s.scraper = startScraper(s.base + "/metrics")
	}
	seed := s.seeds[s.next%len(s.seeds)]
	s.next++
	s.campaigns++
	sp := tr.begin(op, root.id(), "daemon.submit")
	st, err := s.submit(daemon.CampaignRequest{Kind: daemon.KindSweep, Seed: seed, Repetitions: sweepReps, Workers: nproc()})
	tr.end(sp)
	if err != nil {
		return seed, err
	}
	wait := tr.begin(op, root.id(), "daemon.wait")
	st, queued, err := s.await(tr.leaf(op, wait, "daemon.status"), st)
	tr.end(wait)
	if err != nil {
		return seed, err
	}
	if tr != nil {
		s.queueMS[op] = queued.Seconds() * 1e3
	}
	if st.State != daemon.StateCompleted {
		return seed, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	sp = tr.begin(op, root.id(), "daemon.report")
	rep, err := s.text("/api/v1/campaigns/" + st.ID + "/report")
	tr.end(sp)
	if err != nil {
		return seed, err
	}
	if err := check("campaign report", rep, s.refs[seed]); err != nil {
		return seed, err
	}
	return seed, s.scraper.takeErr()
}

func (s *serve) Op(ctx context.Context) error {
	_, err := s.campaign(nil, 0, nil)
	return err
}

// TracedOp runs the HTTP campaign with spans on the client's calls, then
// re-drives the same campaign in-process through a session wired to the
// daemon's recorder and collector, so the server-side layers the client
// waited on get spans of their own.
func (s *serve) TracedOp(ctx context.Context, tr *tracer, op int64) error {
	reg := s.srv.Recorder().Metrics()
	before := totals(reg, collectorSamples)
	root := tr.begin(op, 0, "serve.op")
	defer tr.end(root)
	seed, err := s.campaign(tr, op, root)
	if err != nil {
		return err
	}
	s.samples[op] = totals(reg, collectorSamples)[collectorSamples] - before[collectorSamples]

	rd := tr.begin(op, root.id(), "serve.redrive")
	defer tr.end(rd)
	cfg := sweepConfig(seed, nproc(), true, filepath.Join(s.o.dir, fmt.Sprintf("redrive-%d.journal", op)))
	cfg.Obs = s.srv.Recorder()
	cfg.PowerFanout = s.srv.Collector()
	cfg.TrackPrefix = "redrive/" + strconv.FormatInt(op, 10)
	s.campaigns++ // its tracks land in the daemon's recorder too
	run, err := runSweep(ctx, tr, op, rd, cfg)
	if err != nil {
		return err
	}
	s.last = run
	return check("campaign report (re-driven)", run.text, s.refs[seed])
}

func (s *serve) Layers(ctx context.Context, tr *tracer, ops []int64, m metrics) error {
	if s.last == nil {
		return fmt.Errorf("no traced op completed")
	}
	m["daemon.submit_ms"] = perCall(tr, ops, "daemon.submit", nil) / 1e6
	m["daemon.status_ms"] = perCall(tr, ops, "daemon.status", nil) / 1e6
	m["daemon.queue_ms"] = medianOf(s.queueMS)
	m["collector.samples_per_op"] = medianOf(s.samples)
	m["session.open_ms"] = perCall(tr, ops, "session.open", nil) / 1e6
	m["validity.triage_ms"] = spanSelf(tr, ops, "validity.triage") / 1e6
	m["report.fig4_err_pp"] = fig4FromReps(s.last.reps)

	lat, lag := s.scrapeStats()
	m["serve.scrape_ms_p50"] = median(lat)
	m["serve.scrape_ms_p90"] = percentile(lat, 0.9)
	m["bench.scrape_lag_ms"] = percentile(lag, 0.9)
	m["daemon.restart_s"] = median(s.restarts)

	// Exposition: snapshot and render the live registry directly.
	reg := s.srv.Recorder().Metrics()
	var snap *obs.Snapshot
	sn := timeCalls(10, func() error { snap = reg.Snapshot(); return nil })
	var text bytes.Buffer
	wt := timeCalls(10, func() error { text.Reset(); return snap.WriteText(&text) })
	if wt.err != nil {
		return wt.err
	}
	m["obs.snapshot_ms"] = sn.median.Seconds() * 1e3
	m["obs.write_text_ms"] = wt.median.Seconds() * 1e3
	m["obs.exposition_bytes"] = float64(text.Len())
	for _, line := range strings.Split(text.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			m["obs.series"]++
		}
	}

	// Journal appends: every cell of the last cohort recorded afresh.
	j, err := characterize.OpenJournalCohort(filepath.Join(s.o.dir, "record.journal"),
		characterize.JournalConfig{Cohort: validity.Cohort{Seed: s.o.seed}})
	if err != nil {
		return err
	}
	var n int
	start := time.Now()
	for rep, res := range s.last.reps {
		for board, rs := range res {
			for _, r := range rs {
				for _, pr := range r.Pairs {
					if err := j.Record(board, r.Benchmark, rep, pr); err != nil {
						_ = j.Close()
						return err
					}
					n++
				}
			}
		}
	}
	m["characterize.journal_record_us"] = time.Since(start).Seconds() * 1e6 / float64(n)
	if err := j.Close(); err != nil {
		return err
	}

	// The daemon's own driver and meter counters across one campaign.
	before := totals(reg, driverCounters...)
	if _, err := s.campaign(nil, 0, nil); err != nil {
		return err
	}
	after := totals(reg, driverCounters...)
	for name, v := range after {
		after[name] = v - before[name]
	}
	setDriverMetrics(m, after, 1)
	return nil
}

func medianOf(byOp map[int64]float64) float64 {
	xs := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		xs = append(xs, v)
	}
	return median(xs)
}

func (s *serve) Lanes() int { return 1 }

func (s *serve) Remainder() string {
	return "campaign scheduling, up to one status-poll interval (5 ms) per op, and contention with the concurrent scrapes"
}

func (s *serve) Extra() []string {
	lat, lag := s.scrapeStats()
	return []string{
		fmt.Sprintf("scrapes: %d at 20/s; latency from due time p50 %.3f ms, p90 %.3f ms; generator lag p90 %.3f ms",
			len(lat), median(lat), percentile(lat, 0.9), percentile(lag, 0.9)),
		fmt.Sprintf("daemon restarts: %d (every %d campaigns), median %.3f s, outside the op times",
			len(s.restarts), campaignsPerDaemon, median(s.restarts)),
	}
}

// scrapeStats merges the samples of every scraper the run started.
func (s *serve) scrapeStats() (lat, lag []float64) {
	lat, lag = append([]float64(nil), s.scrapeLat...), append([]float64(nil), s.scrapeLag...)
	if s.scraper != nil {
		l, g := s.scraper.stats()
		lat, lag = append(lat, l...), append(lag, g...)
	}
	return lat, lag
}

func (s *serve) Close() error { return s.stop() }

// scraper is the open-loop /metrics load: scrape i is due at start +
// i × scrapePeriod whether or not scrape i−1 has finished, and each is
// timed from its due time, so a stall also charges the scrapes queued
// behind it. It holds one connection of its own.
type scraper struct {
	client *http.Client
	url    string
	quit   chan struct{}
	done   chan struct{}
	once   sync.Once

	mu       sync.Mutex
	lat, lag []float64 // milliseconds
	err      error     // first failure since the last takeErr
}

func startScraper(url string) *scraper {
	sc := &scraper{client: oneConn(), url: url, quit: make(chan struct{}), done: make(chan struct{})}
	go sc.run()
	return sc
}

func (sc *scraper) run() {
	defer close(sc.done)
	due := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-sc.quit:
			return
		case <-timer.C:
		}
		sent := time.Now()
		err := sc.scrape()
		end := time.Now()
		sc.mu.Lock()
		sc.lat = append(sc.lat, end.Sub(due).Seconds()*1e3)
		sc.lag = append(sc.lag, sent.Sub(due).Seconds()*1e3)
		if err != nil && sc.err == nil {
			sc.err = err
		}
		sc.mu.Unlock()
		due = due.Add(scrapePeriod)
		timer.Reset(time.Until(due))
	}
}

func (sc *scraper) scrape() error {
	resp, err := sc.client.Get(sc.url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return nil
}

// takeErr returns and clears the first scrape failure since the last
// call; the campaign op it lands in counts as failed.
func (sc *scraper) takeErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	err := sc.err
	sc.err = nil
	return err
}

func (sc *scraper) stats() (lat, lag []float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]float64(nil), sc.lat...), append([]float64(nil), sc.lag...)
}

// stop ends the scraper and waits for its goroutine; safe to repeat.
func (sc *scraper) stop() {
	sc.once.Do(func() {
		close(sc.quit)
		<-sc.done
		sc.client.CloseIdleConnections()
	})
}
