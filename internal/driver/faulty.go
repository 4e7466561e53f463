package driver

import (
	"context"
	"fmt"

	"gpuperf/internal/arch"
	"gpuperf/internal/bios"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
	"gpuperf/internal/obs"
)

// Fault-aware driver surface. The measurement harness (harness.go) attaches
// a per-attempt injector to the device, opens it through the *WithFaults
// constructors (which can refuse to boot), drives metered runs through
// RunMeteredCtx so a watchdog context can kill a hung launch, and reflashes
// a wedged device. Everything here is inert — bit-for-bit identical to the
// plain paths — when no injector is attached.

// AttachFaults wires an injector into the device's fault points: the
// clock-set/reflash path (clockset.fail, bios.bitflip), the launch path
// (launch.hang, launch.corrupt) and the power meter (meter.*). Passing nil
// detaches all fault injection.
func (d *Device) AttachFaults(in *fault.Injector) {
	d.faults = in
	d.inst.Faults = in
}

// OpenBoardWithFaults is OpenBoard behind a boot-failure fault point: the
// injector can refuse the boot entirely (boot.fail), modeling a device
// that needs another power-cycle before it enumerates.
func OpenBoardWithFaults(name string, in *fault.Injector) (*Device, error) {
	if err := in.Fail(fault.BootFail, name); err != nil {
		return nil, fmt.Errorf("driver: boot failed: %w", err)
	}
	d, err := OpenBoard(name)
	if err != nil {
		return nil, err
	}
	d.AttachFaults(in)
	return d, nil
}

// OpenSpecWithFaults is OpenSpec behind the same boot-failure fault point.
func OpenSpecWithFaults(spec *arch.Spec, in *fault.Injector) (*Device, error) {
	if err := in.Fail(fault.BootFail, spec.Name); err != nil {
		return nil, fmt.Errorf("driver: boot failed: %w", err)
	}
	d, err := OpenSpec(spec)
	if err != nil {
		return nil, err
	}
	d.AttachFaults(in)
	return d, nil
}

// Reflash reboots the device from its golden VBIOS image at the current
// clock pair — the recovery a resilient harness performs after killing a
// hung launch. It writes the image the way SetClocks does, bypassing the
// fault points: recovery itself is assumed reliable (the next metered
// attempt draws fresh faults).
func (d *Device) Reflash() error {
	pair := d.clk.Pair()
	d.reflash(pair)
	if !bios.ChecksumOK(d.img) {
		return fmt.Errorf("driver: reflash: %w", bios.ErrChecksum)
	}
	if o := d.obs; o != nil {
		o.reboots.Inc()
		o.track.Instant("reflash", obs.Arg{Key: "pair", Value: pair.String()})
	}
	return nil
}

// RunMeteredCtx is RunMetered behind the launch fault points. The hang is
// checked once per metered run — the profile's launch.hang probability is
// per run, so workloads with long kernel sequences are not punished. A
// hung run blocks until the watchdog context expires, then reports the
// hang as a transient fault; with no watchdog armed (a context that can
// never be done) it reports the hang at once rather than blocking
// forever. The corrupt-readout point guards the profiler's counter
// collection. Meter faults apply inside the measurement itself (the
// injector is attached to the instrument).
func (d *Device) RunMeteredCtx(ctx context.Context, name string, ks []*gpu.KernelDesc, hostGapSeconds, minDuration float64) (*RunResult, error) {
	if d.faults.Hit(fault.LaunchHang) {
		if ctx != nil && ctx.Done() != nil {
			<-ctx.Done()
		}
		return nil, fmt.Errorf("driver: workload %q: %w", name,
			&fault.Error{Point: fault.LaunchHang, Scope: name})
	}
	out, err := d.RunMetered(name, ks, hostGapSeconds, minDuration)
	if err != nil {
		return nil, err
	}
	if d.profiling && d.faults.Hit(fault.LaunchCorrupt) {
		return nil, fmt.Errorf("driver: workload %q: %w", name,
			&fault.Error{Point: fault.LaunchCorrupt, Scope: name})
	}
	return out, nil
}
