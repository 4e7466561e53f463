// Command gpuperfd is the long-running campaign server: it owns a fleet
// of simulated devices, serves live Prometheus metrics (including
// per-device, per-scope power gauges fed by every running campaign), and
// runs sweep/model campaigns submitted over HTTP. Each campaign boots its
// own devices, whose launch caches live and die with them.
//
// Usage:
//
//	gpuperfd -addr :9780 -data-dir /var/lib/gpuperf
//	gpuperfd -boards "GTX 480,GTX 680"    serve a restricted fleet
//
// Endpoints: GET /metrics, /healthz, /readyz; POST/GET/DELETE
// /api/v1/campaigns[/{id}[/report|/triage]]; GET /api/v1/power.
//
// SIGTERM or SIGINT drains gracefully: /readyz flips to 503, in-flight
// campaigns stop at their next cell boundary with resumable checkpoint
// journals, then the listener shuts down. A second signal kills the
// process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"gpuperf/internal/cliflags"
	"gpuperf/internal/daemon"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9780", "listen address")
	boards := flag.String("boards", "", `served fleet, comma-separated board names (empty: the paper's four boards)`)
	dataDir := flag.String("data-dir", "", "directory for campaign checkpoint journals, reports and triage reports (required)")
	retention := flag.Int("retention", 0, "per-device per-scope power-sample history depth (0: 1200 ≈ one minute)")
	sampleInterval := flag.Duration("sample-interval", time.Second, "idle power heartbeat period")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for in-flight campaigns")
	progress := flag.Bool("progress", false, "print a periodic one-line fleet status to stderr")
	flag.Parse()

	if *dataDir == "" {
		cliflags.Usage("gpuperfd", errors.New("-data-dir is required"))
	}
	var fleet []string
	if *boards != "" {
		for _, b := range strings.Split(*boards, ",") {
			fleet = append(fleet, strings.TrimSpace(b))
		}
	}
	srv, err := daemon.New(daemon.Config{
		Boards:         fleet,
		DataDir:        *dataDir,
		Retention:      *retention,
		SampleInterval: *sampleInterval,
	})
	if err != nil {
		cliflags.Fatal("gpuperfd", err)
	}

	ctx, stop := cliflags.ServerSignalContext()
	defer stop()
	if *progress {
		defer srv.Recorder().StartProgressCtx(ctx, os.Stderr, 10*time.Second,
			"gpuperf_power_samples_total", "characterize_cells_total",
			"characterize_cells_quarantined_total")()
	}

	// ReadHeaderTimeout bounds how long a client may hold a connection
	// before its request headers arrive.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func(errs chan<- error) {
		errs <- hs.ListenAndServe()
	}(serveErr)
	fmt.Fprintf(os.Stderr, "gpuperfd: serving on %s (fleet: %s)\n",
		*addr, strings.Join(srv.Collector().Devices(), ", "))

	select {
	case err := <-serveErr:
		cliflags.Fatal("gpuperfd", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: drain campaigns to a checkpoint boundary, then
	// close the listener. stop() has restored default signal handling, so
	// a second SIGTERM kills the process.
	fmt.Fprintln(os.Stderr, "gpuperfd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gpuperfd: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		cliflags.Fatal("gpuperfd", err)
	}
	fmt.Fprintln(os.Stderr, "gpuperfd: shutdown complete")
}
