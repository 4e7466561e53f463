// Package bios implements a synthetic VBIOS image format.
//
// The paper controls GPU clocks by patching the BIOS image embedded in the
// proprietary driver so the GPU boots at a chosen performance level
// (Section II-B, the Gdev method). We reproduce that control path: a board's
// available frequency/voltage levels are not constants inside the simulator —
// they are data carried by a binary VBIOS image that the driver parses at
// boot, and changing the boot clocks means patching the image (and fixing
// its checksum), exactly as on real hardware.
//
// Image layout (little endian):
//
//	offset size  field
//	0      4     magic "GVBS"
//	4      2     format version (currently 1)
//	6      2     header size (64)
//	8      32    board name, NUL padded
//	40     1     generation (0 Tesla, 1 Fermi, 2 Kepler)
//	41     1     number of performance-table entries (always 3: L, M, H)
//	42     2     performance-table offset
//	44     1     boot core level (0 L, 1 M, 2 H)
//	45     1     boot memory level
//	46     2     reserved
//	48     4     total image size
//	52     12    reserved
//	64     ...   performance table, 16 bytes per entry
//	last   1     checksum byte: sum of all image bytes ≡ 0 (mod 256)
//
// Performance-table entry (16 bytes):
//
//	0  1  level id (0 L, 1 M, 2 H)
//	1  1  pair mask: bit m set ⇔ (this core level, mem level m) is valid
//	2  2  core clock, MHz
//	4  2  memory clock, MHz
//	6  2  core voltage, mV
//	8  2  memory voltage, mV
//	10 6  reserved
package bios

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
)

// Magic identifies a synthetic VBIOS image.
const Magic = "GVBS"

// Version is the current image format version.
const Version = 1

const (
	headerSize  = 64
	entrySize   = 16
	entryCount  = 3
	nameOffset  = 8
	nameSize    = 32
	genOffset   = 40
	countOffset = 41
	tableOffPos = 42
	bootCorePos = 44
	bootMemPos  = 45
	sizeOffset  = 48
	// ImageSize is the total size of a well-formed image.
	ImageSize = headerSize + entryCount*entrySize + 1
)

// Entry is one decoded performance-table row.
type Entry struct {
	Level    arch.FreqLevel
	PairMask byte // bit m set ⇔ memory level m valid with this core level
	CoreMHz  float64
	MemMHz   float64
	CoreMV   int
	MemMV    int
}

// Image is a decoded VBIOS image.
type Image struct {
	BoardName  string
	Generation arch.Generation
	Boot       clock.Pair
	Table      [entryCount]Entry
}

// Build synthesizes a VBIOS image for the given board with the default
// (H-H) boot clocks.
func Build(spec *arch.Spec) []byte {
	img := make([]byte, ImageSize)
	copy(img[0:4], Magic)
	binary.LittleEndian.PutUint16(img[4:6], Version)
	binary.LittleEndian.PutUint16(img[6:8], headerSize)
	copy(img[nameOffset:nameOffset+nameSize], spec.Name)
	img[genOffset] = byte(spec.Generation)
	img[countOffset] = entryCount
	binary.LittleEndian.PutUint16(img[tableOffPos:tableOffPos+2], headerSize)
	img[bootCorePos] = byte(arch.FreqHigh)
	img[bootMemPos] = byte(arch.FreqHigh)
	binary.LittleEndian.PutUint32(img[sizeOffset:sizeOffset+4], ImageSize)

	for i, l := range arch.Levels() {
		off := headerSize + i*entrySize
		img[off] = byte(l)
		var mask byte
		for _, m := range arch.Levels() {
			if spec.PairValid(l, m) {
				mask |= 1 << uint(m)
			}
		}
		img[off+1] = mask
		binary.LittleEndian.PutUint16(img[off+2:off+4], uint16(math.Round(spec.CoreFreqMHz(l))))
		binary.LittleEndian.PutUint16(img[off+4:off+6], uint16(math.Round(spec.MemFreqMHz(l))))
		binary.LittleEndian.PutUint16(img[off+6:off+8], uint16(math.Round(spec.CoreVoltage(l)*1000)))
		binary.LittleEndian.PutUint16(img[off+8:off+10], uint16(math.Round(spec.MemVoltage(l)*1000)))
	}
	FixChecksum(img)
	return img
}

// FixChecksum rewrites the final byte so the byte sum of the whole image is
// congruent to 0 mod 256 (the convention real VBIOS images use).
func FixChecksum(img []byte) {
	if len(img) == 0 {
		return
	}
	img[len(img)-1] = 0
	var sum byte
	for _, b := range img {
		sum += b
	}
	img[len(img)-1] = -sum
}

// ErrChecksum reports an image whose byte sum is not 0 mod 256.
var ErrChecksum = errors.New("bios: checksum mismatch")

// ChecksumOK reports whether the image's byte sum is 0 mod 256.
func ChecksumOK(img []byte) bool {
	var sum byte
	for _, b := range img {
		sum += b
	}
	return sum == 0
}

// Parse decodes and validates a VBIOS image.
func Parse(img []byte) (*Image, error) {
	if len(img) < headerSize+1 {
		return nil, fmt.Errorf("bios: image truncated (%d bytes)", len(img))
	}
	if string(img[0:4]) != Magic {
		return nil, fmt.Errorf("bios: bad magic %q", string(img[0:4]))
	}
	if v := binary.LittleEndian.Uint16(img[4:6]); v != Version {
		return nil, fmt.Errorf("bios: unsupported version %d", v)
	}
	size := int(binary.LittleEndian.Uint32(img[sizeOffset : sizeOffset+4]))
	if size != len(img) {
		return nil, fmt.Errorf("bios: size field %d does not match image length %d", size, len(img))
	}
	if !ChecksumOK(img) {
		return nil, ErrChecksum
	}
	count := int(img[countOffset])
	if count != entryCount {
		return nil, fmt.Errorf("bios: unexpected perf-table entry count %d", count)
	}
	tableOff := int(binary.LittleEndian.Uint16(img[tableOffPos : tableOffPos+2]))
	// The table must fit before the trailing checksum byte.
	if tableOff < headerSize || tableOff+count*entrySize > len(img)-1 {
		return nil, fmt.Errorf("bios: perf table overruns image")
	}

	out := &Image{
		BoardName:  strings.TrimRight(string(img[nameOffset:nameOffset+nameSize]), "\x00"),
		Generation: arch.Generation(img[genOffset]),
	}
	bootCore, bootMem := arch.FreqLevel(img[bootCorePos]), arch.FreqLevel(img[bootMemPos])
	if bootCore < arch.FreqLow || bootCore > arch.FreqHigh || bootMem < arch.FreqLow || bootMem > arch.FreqHigh {
		return nil, fmt.Errorf("bios: boot levels (%d, %d) out of range", bootCore, bootMem)
	}
	out.Boot = clock.Pair{Core: bootCore, Mem: bootMem}

	for i := 0; i < count; i++ {
		off := tableOff + i*entrySize
		e := Entry{
			Level:    arch.FreqLevel(img[off]),
			PairMask: img[off+1],
			CoreMHz:  float64(binary.LittleEndian.Uint16(img[off+2 : off+4])),
			MemMHz:   float64(binary.LittleEndian.Uint16(img[off+4 : off+6])),
			CoreMV:   int(binary.LittleEndian.Uint16(img[off+6 : off+8])),
			MemMV:    int(binary.LittleEndian.Uint16(img[off+8 : off+10])),
		}
		if int(e.Level) != i {
			return nil, fmt.Errorf("bios: perf-table entry %d has level id %d", i, e.Level)
		}
		out.Table[i] = e
	}
	for i := 1; i < count; i++ {
		if out.Table[i].CoreMHz < out.Table[i-1].CoreMHz || out.Table[i].MemMHz < out.Table[i-1].MemMHz {
			return nil, fmt.Errorf("bios: perf-table clocks not ascending")
		}
	}
	if !out.PairValid(out.Boot) {
		return nil, fmt.Errorf("bios: boot pair %s not in pair mask", out.Boot)
	}
	return out, nil
}

// PairValid reports whether the image's performance table exposes the pair.
func (im *Image) PairValid(p clock.Pair) bool {
	if p.Core < arch.FreqLow || p.Core > arch.FreqHigh || p.Mem < arch.FreqLow || p.Mem > arch.FreqHigh {
		return false
	}
	return im.Table[p.Core].PairMask&(1<<uint(p.Mem)) != 0
}

// ValidPairs enumerates the pairs the image exposes in Table III row order.
func (im *Image) ValidPairs() []clock.Pair {
	var out []clock.Pair
	for ci := 2; ci >= 0; ci-- {
		for mi := 2; mi >= 0; mi-- {
			p := clock.Pair{Core: arch.FreqLevel(ci), Mem: arch.FreqLevel(mi)}
			if im.PairValid(p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// PatchBootPair rewrites the boot performance level inside a raw image and
// fixes the checksum. This is the in-simulation equivalent of the paper's
// BIOS-modding method for forcing a GPU to boot at chosen clocks. The image
// is validated first; patching to a pair the table does not expose fails.
func PatchBootPair(img []byte, p clock.Pair) error {
	decoded, err := Parse(img)
	if err != nil {
		return fmt.Errorf("bios: cannot patch: %w", err)
	}
	if !decoded.PairValid(p) {
		return fmt.Errorf("bios: %s does not expose pair %s", decoded.BoardName, p)
	}
	WriteBootPair(img, p)
	return nil
}

// WriteBootPair writes p as the image's boot performance level and moves
// the checksum byte by the same amount the two level bytes moved, so a
// valid image stays valid and a corrupt one stays detectably corrupt. It
// validates nothing: PatchBootPair checks the image and the pair first,
// and a driver checks the pair against the table it decoded at boot.
func WriteBootPair(img []byte, p clock.Pair) {
	img[len(img)-1] += img[bootCorePos] + img[bootMemPos] - byte(p.Core) - byte(p.Mem)
	img[bootCorePos] = byte(p.Core)
	img[bootMemPos] = byte(p.Mem)
}
