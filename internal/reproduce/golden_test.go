// The golden tests live in an external test package: they drive the
// reproduction as cmd/paper does, through reproduce.Run on an open
// session.
package reproduce_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/fault"
	"gpuperf/internal/obs"
	"gpuperf/internal/reproduce"
	"gpuperf/internal/session"
)

// stripElapsed removes the wall-clock line, the only nondeterministic
// byte range in a report.
func stripElapsed(s string) string {
	lines := strings.Split(s, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "reproduction completed in ") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// TestPaperQuickGolden pins the seed-42 quick report to the golden file
// captured before the session refactor: the Session-driven engine must
// reproduce the pre-refactor byte stream exactly, at the default worker
// count and at the sequential reference.
func TestPaperQuickGolden(t *testing.T) {
	checkGolden(t, "testdata/paper-quick-seed42.golden", nil, reproduce.Quick)
}

// TestPaperFullGolden pins the complete seed-42 report — Section IV's
// Tables V–VIII and Figs. 5–11, the ablations, future work and the
// self-check, none of which the quick report runs — to the stdout of
// `paper -seed 42` without its elapsed line.
func TestPaperFullGolden(t *testing.T) {
	checkGolden(t, "testdata/paper-full-seed42.golden", nil)
}

// faultedProfile is a campaign the 2-retry budget only partly absorbs:
// boot failures quarantine whole benchmarks and drop them from the
// modeling set, clock-set failures and bit flips exhaust modeling
// passes, and corrupt readouts, hangs and meter dropouts are retried
// away.
const faultedProfile = "boot.fail:0.3,launch.hang:0.02,clockset.fail:0.05,launch.corrupt:0.05,bios.bitflip:0.02,meter.drop:0.0005"

// faultedOptions is `paper -seed 42 -board "GTX 680" -faults
// <faultedProfile> -max-retries 2 -launch-timeout 1ms`.
func faultedOptions(t *testing.T) []session.Option {
	t.Helper()
	p, err := fault.ParseProfile(faultedProfile)
	if err != nil {
		t.Fatal(err)
	}
	return []session.Option{session.WithBoards("GTX 680"), session.WithFaults(p),
		session.WithRetryPolicy(2, time.Millisecond)}
}

// TestPaperFaultedGolden pins the retry accounting of a campaign that
// only partly recovers — which cells are quarantined after how many
// retries, which benchmarks the models were trained without, and the
// harness counters behind them. The report must match at every worker
// count and cache mode, the metrics exposition at the sequential
// reference (the pool-width gauge is the one worker-dependent series).
//
// The exposition must match under both recorders: the event-keeping one
// of a CLI run and the track-free one gpuperfd serves with. The golden
// carries characterize_sim_microseconds_total, which reads the sweep
// jobs' cursors, so a device that traced onto a track of its own instead
// of its job's would leave the track-free run's cursors at zero.
func TestPaperFaultedGolden(t *testing.T) {
	opts := faultedOptions(t)
	checkGolden(t, "testdata/paper-faulted-gtx680-seed42.golden", opts)

	golden, err := os.ReadFile("testdata/paper-faulted-gtx680-seed42.metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		rec  *obs.Recorder
	}{{"events", obs.New()}, {"track-free", obs.NewTrackFree()}} {
		s, err := session.New(append(opts, session.WithSeed(42), session.WithWorkers(1),
			session.WithObs(r.rec), session.WithCodeVersion("golden"))...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = reproduce.Run(context.Background(), s, reproduce.DefaultSections(), &bytes.Buffer{})
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		var m bytes.Buffer
		if err := r.rec.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if got := m.String(); got != string(golden) {
			t.Fatalf("%s recorder: metrics diverged from the golden exposition at line %d",
				r.name, firstDiffLine(got, string(golden)))
		}
	}
}

// checkGolden reproduces the seed-42 report of the session configured by
// opts under tweaks at the default worker count, at three workers, at
// the sequential reference, and at the sequential reference with launch
// caching off (every launch compiles its kernel afresh), and requires
// each to equal the golden file byte for byte. Three workers is wider
// than two and uneven over Section IV's eight (board, kind) fitting
// jobs, so the pooled fits run concurrently and finish out of order even
// on a one-CPU host.
func checkGolden(t *testing.T, path string, opts []session.Option, tweaks ...func(*reproduce.Sections)) {
	t.Helper()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sec := reproduce.DefaultSections()
	for _, tweak := range tweaks {
		tweak(&sec)
	}
	for _, run := range []struct {
		workers int
		cache   bool
	}{{0, true}, {3, true}, {1, true}, {1, false}} {
		s, err := session.New(append([]session.Option{session.WithSeed(42),
			session.WithWorkers(run.workers), session.WithCache(run.cache)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = reproduce.Run(context.Background(), s, sec, &buf)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := stripElapsed(buf.String()); got != string(golden) {
			t.Fatalf("workers=%d cache=%v: report diverged from %s at line %d (len %d vs %d)",
				run.workers, run.cache, path, firstDiffLine(got, string(golden)), len(got), len(golden))
		}
	}
}

// firstDiffLine returns the 1-based number of the first line where a and
// b differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
