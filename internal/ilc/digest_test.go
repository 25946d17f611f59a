package ilc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/ilc"
)

// TestCompileOutputDigest pins the compiler's complete output on the
// kernels the figures actually launch: every distinct kernel (by
// structural hash) of every campaign figure, compiled for RV670, RV770
// and RV870. Non-hier kernels are compiled under all four Options
// settings; the long hier probes under the default options only, which
// keeps the test fast. Each program is hashed through its JSON encoding,
// which covers every field of isa.Program (including nil-versus-empty
// slices), so any change to clause formation, packing, forwarding,
// register numbering or program layout changes the digest. Errors (e.g.
// compute kernels on RV670) are part of the stream too.
//
// testdata/compile_digest.txt holds the reference digest. A change meant
// to keep the compiler's output (a performance change, say) must pass
// with it as is; regenerate it only for a deliberate change of output.
func TestCompileOutputDigest(t *testing.T) {
	want, err := os.ReadFile("testdata/compile_digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := campaign.Specs(core.NewSuite(), campaign.FigureNames())
	if err != nil {
		t.Fatal(err)
	}
	allOpts := []ilc.Options{
		{},
		{NoPVForwarding: true},
		{NoClauseTemps: true},
		{NoPVForwarding: true, NoClauseTemps: true},
	}
	archs := []device.Arch{device.RV670, device.RV770, device.RV870}

	h := sha256.New()
	seen := make(map[[sha256.Size]byte]bool)
	kernels, compiles := 0, 0
	for _, sp := range specs {
		opts := allOpts
		if strings.HasPrefix(sp.Name, "hier-") {
			opts = allOpts[:1]
		}
		for _, pt := range sp.Figure.Points {
			kh := pt.K.Hash()
			if seen[kh] {
				continue
			}
			seen[kh] = true
			kernels++
			h.Write(kh[:])
			for _, arch := range archs {
				for _, o := range opts {
					compiles++
					p, err := ilc.CompileWith(pt.K, device.Lookup(arch), o)
					if err != nil {
						h.Write([]byte("error: " + err.Error()))
						continue
					}
					b, err := json.Marshal(p)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d kernels, %d compiles, digest %s", kernels, compiles, got)
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("compile output digest = %s, want %s: the compiler's output changed", got, strings.TrimSpace(string(want)))
	}
}
