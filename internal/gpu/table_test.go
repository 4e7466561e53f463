package gpu_test

import (
	"reflect"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
	"gpuperf/internal/workloads"
)

// timingBoards is every board the campaign stack boots: the four Table I
// boards and the Radeon extension.
func timingBoards() []*arch.Spec {
	return append(arch.AllBoards(), arch.RadeonHD7970())
}

// powerHalfVariants returns one copy of base per numeric Spec field
// outside the embedded Timing, with that field, and only it, perturbed.
func powerHalfVariants(t *testing.T, base *arch.Spec) map[string]*arch.Spec {
	t.Helper()
	typ := reflect.TypeOf(*base)
	out := make(map[string]*arch.Spec)
	embedded := false
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous {
			if f.Type != reflect.TypeOf(arch.Timing{}) {
				t.Fatalf("unexpected embedded field %s", f.Name)
			}
			embedded = true
			continue
		}
		v := *base
		fv := reflect.ValueOf(&v).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Int:
			fv.SetInt(fv.Int() + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float()*1.5 + 0.25)
		default:
			continue
		}
		out[f.Name] = &v
	}
	if !embedded {
		t.Fatal("arch.Spec no longer embeds arch.Timing")
	}
	if len(out) < 20 {
		t.Fatalf("only %d power-half fields perturbed", len(out))
	}
	return out
}

// TestTimingIgnoresPowerHalf is the property the timing tables rest on:
// perturbing any numeric Spec field outside the embedded Timing — the
// voltage curve, energies, static power, core count, headline figures,
// generation — leaves every workload kernel's time, phases and
// activities bit-identical at every valid pair, whether the kernel is
// compiled on the perturbed spec or compiled on the base board and
// evaluated by the perturbed spec's simulator.
func TestTimingIgnoresPowerHalf(t *testing.T) {
	kernels := allKernels(t)
	for _, base := range timingBoards() {
		pairs := clock.ValidPairs(base)
		sim := gpu.New(base, clock.NewState(base))
		compiled := make([]*gpu.CompiledKernel, len(kernels))
		want := make([][]*gpu.KernelResult, len(kernels))
		for i, k := range kernels {
			ck, err := sim.Compile(k)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.Name, k.Name, err)
			}
			if want[i], err = sim.RunPairs(ck, pairs); err != nil {
				t.Fatal(err)
			}
			compiled[i] = ck
		}
		for field, spec := range powerHalfVariants(t, base) {
			psim := gpu.New(spec, clock.NewState(spec))
			label := base.Name + " with " + field + " perturbed"
			for i, k := range kernels {
				ck, err := psim.Compile(k)
				if err != nil {
					t.Fatalf("%s: %s: %v", label, k.Name, err)
				}
				got, err := psim.RunPairs(ck, pairs)
				if err != nil {
					t.Fatal(err)
				}
				shared, err := psim.RunPairs(compiled[i], pairs)
				if err != nil {
					t.Fatalf("%s: kernel compiled on the base board refused: %v", label, err)
				}
				for pi, p := range pairs {
					compareResults(t, label, k.Name, p, got[pi], want[i][pi])
					compareResults(t, label, k.Name, p, shared[pi], want[i][pi])
				}
			}
		}
	}
}

// TestTimingTable pins the table against Compile + RunPairs and its
// kernel-index lookup: the table's own descriptor and an equal copy are
// found, a different kernel is not.
func TestTimingTable(t *testing.T) {
	spec := arch.GTX680()
	pairs := clock.ValidPairs(spec)
	ks := workloads.ByName("backprop").Kernels(1)
	tab, err := gpu.NewTimingTable(spec, ks, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if *tab.Timing() != spec.Timing {
		t.Fatal("table records another timing half")
	}
	sim := gpu.New(spec, clock.NewState(spec))
	for i, k := range tab.Kernels() {
		ck, err := sim.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunPairs(ck, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range tab.Pairs() {
			compareResults(t, spec.Name, k.Name, p, tab.Result(i, p), want[pi])
		}
		if tab.KernelFingerprint(i) != k.Fingerprint() {
			t.Fatalf("%s: table fingerprint %#x, want %#x", k.Name, tab.KernelFingerprint(i), k.Fingerprint())
		}
		copied := *k
		for _, kd := range []*gpu.KernelDesc{k, &copied} {
			if got, ok := tab.KernelIndex(kd); !ok || got != i {
				t.Fatalf("%s: kernel index %d (found %v), want %d", k.Name, got, ok, i)
			}
		}
		copied.Blocks++
		if _, ok := tab.KernelIndex(&copied); ok {
			t.Fatalf("%s: a different kernel was found in the table", k.Name)
		}
	}
	if tab.Result(0, clock.Pair{Core: arch.FreqLow, Mem: arch.FreqLow}) != nil {
		t.Fatal("table served a pair the GTX 680 does not expose")
	}
}
