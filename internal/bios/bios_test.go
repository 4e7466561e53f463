package bios

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
)

func TestBuildParseRoundTrip(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		img := Build(spec)
		if len(img) != ImageSize {
			t.Fatalf("%s: image size %d, want %d", spec.Name, len(img), ImageSize)
		}
		decoded, err := Parse(img)
		if err != nil {
			t.Fatalf("%s: Parse: %v", spec.Name, err)
		}
		if decoded.BoardName != spec.Name {
			t.Errorf("board name %q, want %q", decoded.BoardName, spec.Name)
		}
		if decoded.Generation != spec.Generation {
			t.Errorf("%s: generation %v, want %v", spec.Name, decoded.Generation, spec.Generation)
		}
		if decoded.Boot != clock.DefaultPair() {
			t.Errorf("%s: boot pair %s, want (H-H)", spec.Name, decoded.Boot)
		}
		for _, l := range arch.Levels() {
			e := decoded.Table[l]
			if e.CoreMHz != math.Round(spec.CoreFreqMHz(l)) {
				t.Errorf("%s level %s: core %g MHz, want %g", spec.Name, l, e.CoreMHz, spec.CoreFreqMHz(l))
			}
			if e.MemMHz != math.Round(spec.MemFreqMHz(l)) {
				t.Errorf("%s level %s: mem %g MHz, want %g", spec.Name, l, e.MemMHz, spec.MemFreqMHz(l))
			}
			wantCoreMV := int(math.Round(spec.CoreVoltage(l) * 1000))
			if e.CoreMV != wantCoreMV {
				t.Errorf("%s level %s: core %d mV, want %d", spec.Name, l, e.CoreMV, wantCoreMV)
			}
		}
	}
}

func TestImagePairsMatchSpec(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		decoded, err := Parse(Build(spec))
		if err != nil {
			t.Fatal(err)
		}
		specPairs := clock.ValidPairs(spec)
		imgPairs := decoded.ValidPairs()
		if len(specPairs) != len(imgPairs) {
			t.Fatalf("%s: %d pairs in image, want %d", spec.Name, len(imgPairs), len(specPairs))
		}
		for i := range specPairs {
			if specPairs[i] != imgPairs[i] {
				t.Errorf("%s: pair %d = %s, want %s", spec.Name, i, imgPairs[i], specPairs[i])
			}
		}
	}
}

// TestChecksum also pins the invariants the driver's checksum-only reboot
// rests on, for every board (the four Table I boards and the Radeon HD
// 7970) and every valid boot pair written in: the patched image keeps a
// valid checksum, and flipping any one of its bits breaks it. A flip
// changes the byte sum by ±2^k with k < 8, which is never 0 mod 256.
func TestChecksum(t *testing.T) {
	img := Build(arch.GTX680())
	if !ChecksumOK(img) {
		t.Fatal("fresh image has bad checksum")
	}
	img[10]++
	if ChecksumOK(img) {
		t.Fatal("corrupted image passes checksum")
	}
	FixChecksum(img)
	if !ChecksumOK(img) {
		t.Fatal("FixChecksum did not repair the image")
	}

	for _, spec := range append(arch.AllBoards(), arch.RadeonHD7970()) {
		for _, p := range clock.ValidPairs(spec) {
			img := Build(spec)
			if err := PatchBootPair(img, p); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, p, err)
			}
			// The incremental checksum update writes the bytes a full
			// recomputation would.
			want := Build(spec)
			want[bootCorePos], want[bootMemPos] = byte(p.Core), byte(p.Mem)
			FixChecksum(want)
			if !bytes.Equal(img, want) || !ChecksumOK(img) {
				t.Fatalf("%s %s: patched image differs from a full checksum fix", spec.Name, p)
			}
			for bit := 0; bit < len(img)*8; bit++ {
				img[bit/8] ^= 1 << (bit % 8)
				if ChecksumOK(img) {
					t.Errorf("%s %s: flipping bit %d keeps the checksum valid", spec.Name, p, bit)
				}
				img[bit/8] ^= 1 << (bit % 8)
			}
		}
	}
	if ImageSize*8 != 904 {
		t.Errorf("image has %d bits, want 904", ImageSize*8)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	fresh := func() []byte { return Build(arch.GTX480()) }

	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated", func(b []byte) []byte { return b[:headerSize/2] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; FixChecksum(b); return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; FixChecksum(b); return b }},
		{"bad checksum", func(b []byte) []byte { b[20]++; return b }},
		{"bad size field", func(b []byte) []byte { b[sizeOffset]++; FixChecksum(b); return b }},
		{"bad entry count", func(b []byte) []byte { b[countOffset] = 7; FixChecksum(b); return b }},
		{"table overrun", func(b []byte) []byte {
			b[tableOffPos] = 0xFF
			b[tableOffPos+1] = 0x0F
			FixChecksum(b)
			return b
		}},
		{"bad boot level", func(b []byte) []byte { b[bootCorePos] = 9; FixChecksum(b); return b }},
		{"boot pair not exposed", func(b []byte) []byte {
			// (L-L) is not exposed on GTX 480's Core-L row? It is; use GTX 680 path below.
			b[bootCorePos] = byte(arch.FreqLow)
			b[bootMemPos] = byte(arch.FreqMid) // (L-M) invalid on GTX 480
			FixChecksum(b)
			return b
		}},
		{"shuffled level ids", func(b []byte) []byte {
			b[headerSize], b[headerSize+entrySize] = b[headerSize+entrySize], b[headerSize]
			FixChecksum(b)
			return b
		}},
	}
	for _, c := range corruptions {
		img := c.mut(fresh())
		if _, err := Parse(img); err == nil {
			t.Errorf("Parse accepted image with %s", c.name)
		}
	}
}

func TestPatchBootPair(t *testing.T) {
	img := Build(arch.GTX680())
	target := clock.Pair{Core: arch.FreqMid, Mem: arch.FreqLow}
	if err := PatchBootPair(img, target); err != nil {
		t.Fatalf("PatchBootPair: %v", err)
	}
	if !ChecksumOK(img) {
		t.Fatal("patched image has bad checksum")
	}
	decoded, err := Parse(img)
	if err != nil {
		t.Fatalf("Parse after patch: %v", err)
	}
	if decoded.Boot != target {
		t.Errorf("boot pair %s after patch, want %s", decoded.Boot, target)
	}
}

func TestPatchBootPairRejectsUnexposedPair(t *testing.T) {
	img := Build(arch.GTX680())
	before := append([]byte(nil), img...)
	if err := PatchBootPair(img, clock.Pair{Core: arch.FreqLow, Mem: arch.FreqLow}); err == nil {
		t.Fatal("PatchBootPair accepted (L-L) on GTX 680")
	}
	if !bytes.Equal(img, before) {
		t.Error("failed patch modified the image")
	}
}

func TestPatchBootPairRejectsCorruptImage(t *testing.T) {
	img := Build(arch.GTX285())
	img[30]++
	if err := PatchBootPair(img, clock.DefaultPair()); err == nil {
		t.Fatal("PatchBootPair accepted corrupt image")
	}
}

func TestPatchAllValidPairsRoundTrip(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		for _, p := range clock.ValidPairs(spec) {
			img := Build(spec)
			if err := PatchBootPair(img, p); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, p, err)
			}
			decoded, err := Parse(img)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, p, err)
			}
			if decoded.Boot != p {
				t.Errorf("%s: boot %s, want %s", spec.Name, decoded.Boot, p)
			}
		}
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	// Property: Parse must reject (not panic on) arbitrary mutations of a
	// valid image.
	base := Build(arch.GTX460())
	f := func(pos uint16, val byte, truncate uint16) bool {
		img := append([]byte(nil), base...)
		img[int(pos)%len(img)] = val
		if int(truncate)%4 == 0 {
			img = img[:int(truncate)%len(img)]
		}
		_, err := Parse(img) // must not panic; error or nil both fine
		_ = err
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
