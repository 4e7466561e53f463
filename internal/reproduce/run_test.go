package reproduce_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"gpuperf/internal/reproduce"
	"gpuperf/internal/session"
)

// TestRunMatchesRunContext: Run on an open session renders the report
// RunContext renders from the same configuration byte for byte, and
// counts its sweep cells in the session's progress; a cancelled context
// fails the run with context.Canceled in the error chain.
func TestRunMatchesRunContext(t *testing.T) {
	opts := reproduce.DefaultOptions()
	reproduce.Quick(&opts.Sections)
	var want bytes.Buffer
	if _, err := reproduce.RunContext(context.Background(), opts, &want); err != nil {
		t.Fatal(err)
	}

	s, err := session.Open(opts.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got bytes.Buffer
	if _, err := reproduce.Run(context.Background(), s, opts.Sections, &got); err != nil {
		t.Fatal(err)
	}
	if stripElapsed(got.String()) != stripElapsed(want.String()) {
		t.Fatalf("Run on a session diverges from RunContext at line %d",
			firstDiffLine(stripElapsed(got.String()), stripElapsed(want.String())))
	}
	if p := s.Progress(); p.Planned == 0 || p.Done != p.Planned {
		t.Errorf("session progress after the run = %+v, want every planned cell done", p)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reproduce.Run(ctx, s, opts.Sections, io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("Run under a cancelled context: %v, want context.Canceled in the chain", err)
	}
}
