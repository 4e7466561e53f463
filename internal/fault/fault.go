// Package fault is the deterministic fault-injection subsystem behind the
// resilient measurement harness. The paper's campaign ran on real hardware
// where reflashes brick, launches hang and meter samples drop; the
// reproduction injects those failures on purpose — seeded, reproducible,
// and strictly separated from the measurement-noise RNGs — so the retry,
// watchdog, quarantine and checkpoint machinery is exercised by tests
// instead of by luck.
//
// The pieces:
//
//   - Profile: a parseable campaign spec, "point:probability[:param]"
//     entries separated by commas (e.g. "launch.hang:0.02,meter.drop:0.1").
//   - Campaign: a profile plus a seed. Campaign.Injector derives the
//     per-(scope, attempt) injector whose per-point rand streams are
//     independent of each other and of every device noise stream.
//   - Error: the classification wrapper every injected failure is returned
//     in. All injected faults are transient by construction — permanence
//     emerges from probability 1.0 plus retry exhaustion.
//   - Resilience: the harness knobs (retries, backoff, launch watchdog)
//     shared by characterize, core and the CLIs.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// Point names one injection site threaded through the stack.
type Point string

// The injectable fault points. Probabilities are per draw: per boot
// (boot.fail), per reflash (clockset.fail, bios.bitflip), per kernel
// launch (launch.hang), per profiled run (launch.corrupt) and per meter
// sample (meter.drop, meter.spike) or per measurement (meter.stuck).
const (
	BootFail      Point = "boot.fail"      // device fails to come up
	ClockSetFail  Point = "clockset.fail"  // VBIOS reflash rejected
	LaunchHang    Point = "launch.hang"    // kernel never returns (needs watchdog)
	LaunchCorrupt Point = "launch.corrupt" // profiler counter readout garbage
	MeterDrop     Point = "meter.drop"     // instrument returns no sample
	MeterSpike    Point = "meter.spike"    // transient out-of-range reading; param = added watts
	MeterStuck    Point = "meter.stuck"    // reading repeats; param = run length in samples
	BiosBitFlip   Point = "bios.bitflip"   // one bit flips during reflash
)

// MeterDegraded is a pseudo-point used only for classification: a
// measurement that survived with interpolated samples counts as a
// transient failure when the harness decides whether to retry. It is not
// injectable and ParseProfile rejects it.
const MeterDegraded Point = "meter.degraded"

// Points lists the injectable points in profile-canonical (sorted) order.
func Points() []Point {
	return []Point{
		BiosBitFlip, BootFail, ClockSetFail,
		LaunchCorrupt, LaunchHang,
		MeterDrop, MeterSpike, MeterStuck,
	}
}

// KnownPoint reports whether pt is an injectable point.
func KnownPoint(pt Point) bool {
	for _, p := range Points() {
		if p == pt {
			return true
		}
	}
	return false
}

// Error classifies one injected failure. Every injected fault is
// transient — retryable by definition; whether it *recovers* depends on
// its probability and the retry budget.
type Error struct {
	Point Point
	Scope string // what was being attempted, e.g. "GTX 680|backprop|(H-L)"
	Err   error  // underlying error, if the fault surfaced through one
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("injected fault %s", e.Point)
	if e.Scope != "" {
		msg += " during " + e.Scope
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error { return e.Err }

// PointOf extracts the fault point from a classified error chain.
func PointOf(err error) (Point, bool) {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Point, true
	}
	return "", false
}

// hash64 is the FNV-1a helper every seed derivation in this package uses.
// Domain-separation prefixes ("fault|…") keep fault streams disjoint from
// the measurement-noise streams, which hash bare benchmark names.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // fnv: hash.Hash.Write never errors
	return h.Sum64()
}
