package driver

import (
	"gpuperf/internal/meter"
	"gpuperf/internal/obs"
)

// driverObs bundles one device's instrumentation: the virtual-time track
// its launches and clock transitions land on, plus the per-board driver
// counters. nil means the device is unobserved (the default) and every
// instrumented path pays a single pointer check.
type driverObs struct {
	track      *obs.Track
	boots      *obs.Counter
	reboots    *obs.Counter
	clockSets  *obs.Counter
	launches   *obs.Counter
	hitsDevice *obs.Counter
	misses     *obs.Counter
}

// Observe attaches a recorder to the device: driver events (launches,
// cache hits/misses, clock transitions, reboots) are counted per board in
// rec's registry and traced on track, and the meter's per-measurement
// counts are registered alongside. track is the job's own track, handed
// down rather than looked up by name: the device's runs advance the
// cursor the job reads, and a NewTrackFree recorder would answer a second
// lookup with a second cursor. Passing a nil recorder detaches. Counts
// one boot.
func (d *Device) Observe(rec *obs.Recorder, track *obs.Track) {
	if rec == nil {
		d.obs = nil
		d.inst.Obs = nil
		return
	}
	d.obs = newDriverObs(rec.Metrics(), d.spec.Name, track)
	d.obs.boots.Inc()
	d.inst.Obs = newMeterObs(rec.Metrics(), d.spec.Name)
}

// newDriverObs registers the per-board driver metrics.
func newDriverObs(reg *obs.Registry, board string, track *obs.Track) *driverObs {
	bl := obs.L("board", board)
	return &driverObs{
		track:      track,
		boots:      reg.Counter("driver_boots_total", "devices booted under observation", bl),
		reboots:    reg.Counter("driver_reboots_total", "golden-image reflashes after detected hangs", bl),
		clockSets:  reg.Counter("driver_clock_transitions_total", "successful VBIOS-patch clock transitions", bl),
		launches:   reg.Counter("driver_launches_total", "kernel launches, memoized included", bl),
		hitsDevice: reg.Counter("driver_launch_cache_hits_total", "launches served from a cache", bl, obs.L("cache", "device")),
		misses:     reg.Counter("driver_launch_cache_misses_total", "launches that ran the simulator", bl),
	}
}

// newMeterObs registers the per-board instrument metrics.
func newMeterObs(reg *obs.Registry, board string) *meter.Obs {
	bl := obs.L("board", board)
	return &meter.Obs{
		Measurements: reg.Counter("meter_measurements_total", "measurements finalized", bl),
		Samples:      reg.Counter("meter_samples_total", "50 ms sampling windows taken", bl),
		Dropped:      reg.Counter("meter_windows_dropped_total", "windows lost to sample dropout", bl),
		Spiked:       reg.Counter("meter_windows_spiked_total", "windows hit by transient spikes", bl),
		Stuck:        reg.Counter("meter_windows_stuck_total", "windows flagged as stuck-ADC repeats", bl),
		Interpolated: reg.Counter("meter_windows_interpolated_total", "windows reconstructed by interpolation", bl),
	}
}
