package driver

import (
	"reflect"
	"strconv"
	"testing"

	"gpuperf/internal/arch"
)

// perturbLeaves walks every leaf of v (struct fields and array elements,
// recursively), calling visit with the leaf's path after changing it and
// restoring it afterwards. A leaf kind the walk does not know fails the
// test: a new kind of Spec field needs both a perturbation here and a
// hashing rule in specFingerprint.
func perturbLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
		return
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", visit)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float()*1.5 + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("%s: no perturbation for kind %v; extend this test and specFingerprint", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// specLeaves is the number of scalars in an arch.Spec: 45 scalar
// fields, 6 clock levels and 9 valid-pair flags. It guards the walk
// itself against stopping early; a field added to Spec changes it.
const specLeaves = 45 + 6 + 9

// TestSpecFingerprintCoversEveryField perturbs every field of arch.Spec
// in turn, array elements included, and requires the fingerprint to
// change each time. specFingerprint lists the fields by hand, so a field
// added to Spec later and left out of the hash would let two specs that
// differ only in it share launch-cache entries; this test catches that.
func TestSpecFingerprintCoversEveryField(t *testing.T) {
	for _, base := range []*arch.Spec{arch.GTX285(), arch.GTX680()} {
		spec := *base
		want := specFingerprint(&spec)
		leaves := 0
		perturbLeaves(t, reflect.ValueOf(&spec).Elem(), "Spec", func(path string) {
			leaves++
			if specFingerprint(&spec) == want {
				t.Errorf("%s: perturbing %s leaves the fingerprint unchanged", base.Name, path)
			}
		})
		if got := specFingerprint(&spec); got != want {
			t.Fatalf("%s: perturbation was not undone (fingerprint %x, want %x)", base.Name, got, want)
		}
		if leaves != specLeaves {
			t.Errorf("%s: walked %d leaves of Spec, want %d", base.Name, leaves, specLeaves)
		}
	}
}

// TestSpecFingerprintDistinctBoards requires every stock board to have
// its own fingerprint.
func TestSpecFingerprintDistinctBoards(t *testing.T) {
	seen := map[uint64]string{}
	for _, spec := range append(arch.AllBoards(), arch.RadeonHD7970()) {
		fp := specFingerprint(spec)
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share fingerprint %x", spec.Name, other, fp)
		}
		seen[fp] = spec.Name
	}
}

// TestSpecFingerprintAllocs pins that the fingerprint, computed once
// per boot, does not allocate.
func TestSpecFingerprintAllocs(t *testing.T) {
	spec := arch.GTX480()
	if n := testing.AllocsPerRun(100, func() { specFingerprint(spec) }); n != 0 {
		t.Errorf("specFingerprint allocates %v objects per call, want 0", n)
	}
}
