// Package collector is the daemon's live power-telemetry sink: it owns
// the fleet's idle power model (one booted simulated device per served
// board), implements driver.PowerFanout, and publishes per-device,
// per-scope power gauges and histograms into the daemon's shared metrics
// registry — the families a /metrics scrape reads while campaigns run.
//
// The collector is strictly live-side: campaigns stream their samples
// through it, but nothing in the artifact path (journals, reports,
// recorded metrics of a CLI run) ever depends on it. Every handle is
// registered in New — the registry is never written from an HTTP
// handler (the scrape-safety contract gpulint's daemoncheck enforces).
package collector

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gpuperf/internal/driver"
	"gpuperf/internal/obs"
	"gpuperf/internal/power"
)

// DefaultRetention is the per-(device, scope) ring-buffer depth: at the
// meter's 50 ms cadence, 1200 samples is one minute of history.
const DefaultRetention = 1200

// wattBuckets spans idle Tesla boards (~30 W static) through a loaded
// module (paper boards peak below ~400 W at the wall; the GPU domains
// sit below that).
var wattBuckets = []float64{25, 50, 75, 100, 150, 200, 300, 400}

// deviceState is one served board's live-telemetry state.
type deviceState struct {
	dev   *driver.Device
	idle  power.Breakdown
	gauge map[power.Scope]*obs.FloatGauge
	hist  map[power.Scope]*obs.Histogram

	samples *obs.Counter // samples received from campaigns
	seen    atomic.Int64 // samples since boot (idle reseed heartbeat)

	mu   sync.Mutex
	ring map[power.Scope]*sampleRing
}

// sampleRing is one (device, scope) sample history: a fixed buffer written
// circularly, so a sample costs O(1) however long the retention. head is
// the oldest sample's index; n counts the samples held.
type sampleRing struct {
	buf     []float64
	head, n int
}

// push appends w, overwriting the oldest sample once the buffer is full.
func (r *sampleRing) push(w float64) {
	r.buf[(r.head+r.n)%len(r.buf)] = w
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.head = (r.head + 1) % len(r.buf)
	}
}

// recent copies the held samples out, oldest first; nil when empty.
func (r *sampleRing) recent() []float64 {
	if r.n == 0 {
		return nil
	}
	out := make([]float64, r.n)
	for i := range out {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Collector fans campaign power samples out to the live exposition with
// bounded retention. Safe for concurrent use from every sweep worker.
type Collector struct {
	devices   map[string]*deviceState
	order     []string     // board names in fleet order
	dropped   *obs.Counter // samples from boards outside the fleet
	retention int

	stop chan struct{}
	done chan struct{}
}

// New boots one simulated device per named board and registers the
// fleet's metric families in reg: gpuperf_power_watts{device,scope}
// (gauge, watts), gpuperf_power_watts_hist{device,scope} (histogram) and
// gpuperf_power_samples_total{device} / gpuperf_power_samples_dropped_total
// (counters). retention bounds the per-(device, scope) sample history
// (≤ 0: DefaultRetention). The gauges are seeded synchronously with each
// board's idle breakdown, so the first scrape already carries every
// family for every device.
func New(reg *obs.Registry, boardNames []string, retention int) (*Collector, error) {
	if reg == nil {
		return nil, fmt.Errorf("collector: nil registry")
	}
	if len(boardNames) == 0 {
		return nil, fmt.Errorf("collector: empty fleet")
	}
	if retention <= 0 {
		retention = DefaultRetention
	}
	c := &Collector{
		devices:   make(map[string]*deviceState, len(boardNames)),
		retention: retention,
		dropped: reg.Counter("gpuperf_power_samples_dropped_total",
			"power samples from devices outside the served fleet"),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, name := range boardNames {
		if _, ok := c.devices[name]; ok {
			return nil, fmt.Errorf("collector: duplicate board %q", name)
		}
		dev, err := driver.OpenBoard(name)
		if err != nil {
			return nil, fmt.Errorf("collector: %w", err)
		}
		ds := &deviceState{
			dev:   dev,
			idle:  dev.IdleScopePower(),
			gauge: make(map[power.Scope]*obs.FloatGauge, 3),
			hist:  make(map[power.Scope]*obs.Histogram, 3),
			ring:  make(map[power.Scope]*sampleRing, 3),
			samples: reg.Counter("gpuperf_power_samples_total",
				"power samples received from campaign runs", obs.L("device", name)),
		}
		for _, sc := range power.Scopes() {
			lbls := []obs.Label{obs.L("device", name), obs.L("scope", string(sc))}
			ds.gauge[sc] = reg.FloatGauge("gpuperf_power_watts",
				"last observed power by device and scope, watts", lbls...)
			ds.hist[sc] = reg.Histogram("gpuperf_power_watts_hist",
				"distribution of observed power by device and scope, watts",
				wattBuckets, lbls...)
			ds.ring[sc] = &sampleRing{buf: make([]float64, retention)}
			ds.gauge[sc].Set(ds.idle.Scope(sc)) // idle until the first sample
		}
		c.devices[name] = ds
		c.order = append(c.order, name)
	}
	return c, nil
}

// Devices returns the fleet's board names in serving order.
func (c *Collector) Devices() []string {
	return append([]string(nil), c.order...)
}

// SamplePower implements driver.PowerFanout: one scope-tagged reading
// from a campaign's metered run. Samples from boards outside the fleet
// are counted and dropped (a campaign may sweep boards the daemon does
// not export telemetry for).
func (c *Collector) SamplePower(device string, scopes power.Breakdown) {
	ds, ok := c.devices[device]
	if !ok {
		c.dropped.Inc()
		return
	}
	ds.samples.Inc()
	ds.seen.Add(1)
	ds.mu.Lock()
	for _, sc := range power.Scopes() {
		w := scopes.Scope(sc)
		ds.gauge[sc].Set(w)
		ds.hist[sc].Observe(w)
		ds.ring[sc].push(w)
	}
	ds.mu.Unlock()
}

// Recent returns a copy of up to the retention window of the device's
// most recent samples for one scope, oldest first. Nil for unknown
// devices and for a window that holds no sample yet.
func (c *Collector) Recent(device string, sc power.Scope) []float64 {
	ds, ok := c.devices[device]
	if !ok {
		return nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.ring[sc].recent()
}

// Idle returns the device's modeled idle power breakdown (zero value for
// unknown devices).
func (c *Collector) Idle(device string) power.Breakdown {
	if ds, ok := c.devices[device]; ok {
		return ds.idle
	}
	return power.Breakdown{}
}

// Start launches the idle heartbeat: every interval, devices that saw no
// campaign sample since the previous tick have their gauges re-seeded to
// the idle breakdown, so a fleet with no running campaign reports idle
// power rather than the last run's final reading forever. Call Stop to
// end the goroutine; Start may be called at most once.
func (c *Collector) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	last := make(map[string]int64, len(c.devices))
	go func() {
		defer close(c.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				for name, ds := range c.devices {
					if n := ds.seen.Load(); n != last[name] {
						last[name] = n
						continue
					}
					ds.mu.Lock()
					for _, sc := range power.Scopes() {
						ds.gauge[sc].Set(ds.idle.Scope(sc))
					}
					ds.mu.Unlock()
				}
			}
		}
	}()
}

// Stop ends the idle heartbeat and waits for it to exit. Safe to call
// once after Start; a collector that was never started must not call it.
func (c *Collector) Stop() {
	close(c.stop)
	<-c.done
}
