// Package concurrency_bad is a lint fixture: every line marked with a
// want comment must be flagged by the concurrency analyzer.
package concurrency_bad

func fire() {
	go func() { // want:concurrency "completion signal"
		_ = 1 + 1
	}()
}

func launch() {
	go work(3) // want:concurrency "completion signal"
}

func work(n int) { _ = n }

var _ = fire
var _ = launch
