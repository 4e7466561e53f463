package driver

import (
	"sync"

	"gpuperf/internal/fastrng"
	"gpuperf/internal/meter"
)

// runResultPool recycles RunResults together with their period-trace
// storage. A sweep produces one metered RunResult per (benchmark, pair)
// cell and copies a handful of scalars out of each, so the struct, the
// period slice and the attached Measurement dominate the campaign loop's
// garbage; harnesses that fully consume a result hand it back via
// ReleaseRunResult.
var runResultPool = sync.Pool{New: func() any { return new(RunResult) }}

// newRunResult returns a zeroed RunResult plus the recycled period-trace
// storage (length 0) its previous owner built, ready to be grown by
// Append and re-attached via meter.Tile.
func newRunResult() (*RunResult, meter.Trace) {
	out := runResultPool.Get().(*RunResult)
	period := out.Trace.Period[:0]
	*out = RunResult{}
	return out, period
}

// ReleaseRunResult returns a metered run's result — and its pooled
// Measurement — to the internal pools. Only the sole owner may call it,
// after every needed value has been copied out; the result, its trace and
// its measurement must not be touched afterwards. Releasing is optional;
// unreleased results are ordinary garbage.
func ReleaseRunResult(r *RunResult) {
	if r == nil {
		return
	}
	meter.ReleaseMeasurement(r.Measurement)
	r.Measurement = nil
	runResultPool.Put(r)
}

// Release returns the device's 4.9 KB noise source to the pool the next
// boot takes it from. Only the sole owner may call it, once it is done
// with the device: a released device has no noise source, so a later
// seed or metered run panics instead of drawing from a stream another
// device now owns. Releasing is optional; an unreleased device is
// ordinary garbage. The campaign engines release the devices they boot;
// a device handed to a caller is the caller's to release.
func (d *Device) Release() {
	if d.noise == nil {
		return
	}
	fastrng.Put(d.noise)
	d.noise = nil
}
