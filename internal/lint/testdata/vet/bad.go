// Package vet is a fixture for the go vet checks that gpulint leaves to
// vet: every line marked with a want comment must be reported by the
// named vet analyzer (TestVetFixture).
package vet

import (
	"context"
	"errors"
	"sync"
)

type device struct {
	mu sync.Mutex
	n  int
}

func byValue(d device) int { // want:copylocks "passes lock by value"
	return d.n
}

func (d device) count() int { // want:copylocks "passes lock by value"
	return d.n
}

func snapshot(d *device) int {
	local := *d // want:copylocks "assignment copies lock value"
	return local.n
}

func total(devs []device) int {
	sum := 0
	for _, d := range devs { // want:copylocks "range var d copies lock"
		sum += d.n
	}
	return sum
}

// measure releases its watchdog on the success path only.
func measure(fail bool) error {
	ctx, cancel := context.WithCancel(context.Background()) // want:lostcancel "not used on all paths"
	if fail {
		return errors.New("launch failed") // want:lostcancel "without using the cancel"
	}
	defer cancel()
	return ctx.Err()
}

var _ = byValue
var _ = snapshot
var _ = total
var _ = measure
