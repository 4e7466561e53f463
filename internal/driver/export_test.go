package driver

import (
	"math"

	"gpuperf/internal/gpu"
)

// Bridges from the external test package (table_ext_test.go), which
// imports internal/fleet and so cannot live in package driver.

// LaunchBits launches k at d's programmed pair and returns the bit
// patterns of the noiseless payload the launch computes: time, waveform
// (its length, then each segment), activities and scope joules.
func LaunchBits(d *Device, k *gpu.KernelDesc) ([]uint64, error) {
	cl, err := d.launch(k)
	if err != nil {
		return nil, err
	}
	bits := []uint64{math.Float64bits(cl.time), uint64(len(cl.trace))}
	for _, s := range cl.trace {
		bits = append(bits, math.Float64bits(s.Duration), math.Float64bits(s.Watts))
	}
	for _, a := range cl.acts {
		bits = append(bits, math.Float64bits(a))
	}
	return append(bits, math.Float64bits(cl.scopeJ.GPU), math.Float64bits(cl.scopeJ.Memory)), nil
}
