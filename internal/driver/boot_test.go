package driver

import (
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
)

// jittered returns a copy of a stock board with its voltage and leakage
// parameters nudged, the way a fleet device differs from its base board:
// a distinct spec that no per-spec memo has seen.
func jittered(base *arch.Spec, k float64) *arch.Spec {
	spec := *base
	spec.CoreVoltHigh *= k
	spec.CoreVoltLow *= k
	spec.MemVoltHigh *= k
	spec.MemVoltLow *= k
	spec.CoreLeakWatts *= k
	return &spec
}

// bootBoards is one board per generation.
func bootBoards() []*arch.Spec {
	return []*arch.Spec{arch.GTX285(), arch.GTX480(), arch.GTX680(), arch.RadeonHD7970()}
}

// TestOpenSpecAllocs guards the boot cost a fleet pays once per device:
// counter sets are shared per generation, the noise source seeds lazily
// and the spec fingerprint hashes fields without fmt, so a boot is a
// handful of fixed allocations whatever the generation.
func TestOpenSpecAllocs(t *testing.T) {
	const maxAllocs = 16
	for _, base := range bootBoards() {
		spec := jittered(base, 1.01)
		if _, err := OpenSpec(spec); err != nil { // first boot builds the shared counter set
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if _, err := OpenSpec(spec); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxAllocs {
			t.Errorf("%s (%v): OpenSpec allocates %v objects, want ≤ %d", base.Name, base.Generation, n, maxAllocs)
		}
	}
}

// TestCellReseedAllocs pins the per-cell reseed the sweeps make before
// every metered pair: formatting the pair and reseeding allocate nothing.
func TestCellReseedAllocs(t *testing.T) {
	d, err := OpenSpec(jittered(arch.GTX680(), 1.01))
	if err != nil {
		t.Fatal(err)
	}
	pairs := clock.ValidPairs(d.Spec())
	n := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			d.SeedScoped("pair|" + p.String())
		}
	})
	if n != 0 {
		t.Errorf("per-cell reseed allocates %v objects per sweep, want 0", n)
	}
}

// BenchmarkOpenSpec measures one device boot from a jittered spec.
func BenchmarkOpenSpec(b *testing.B) {
	for _, base := range bootBoards() {
		spec := jittered(base, 1.01)
		b.Run(base.Generation.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OpenSpec(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
