package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeFlagsRejected pins the usage errors run returns before it
// listens: a negative -iters or -max-domain exits 2. The listen address
// has an out-of-range port, so a run that got as far as listening would
// exit 1 at once instead of serving.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-iters", "-1"},
		{"-max-domain", "-1"},
	} {
		var stderr bytes.Buffer
		if code := run(append(args, "-addr", "127.0.0.1:99999"), &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr: %s", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "cannot be negative") {
			t.Errorf("%v: stderr %q does not name the bad flag", args, stderr.String())
		}
	}
}
