package selfcheck

import "testing"

func TestAllChecksPass(t *testing.T) {
	results := Run(42)
	if len(results) < 15 {
		t.Fatalf("only %d checks ran", len(results))
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("%s failed: %s", r.Name, r.Detail)
		}
	}
}
