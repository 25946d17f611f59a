package ilc_test

import (
	"testing"

	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
)

// A compile miss sits on every sweep point the artifact cache has not
// seen, and the hier probes make the longest kernels the suite compiles.
// Compilation sizes every buffer from counts it knows up front, so its
// allocation count is a small constant independent of kernel length:
// value and use tables, clause and bundle drafts, placement and schedule
// tables, the register scan's interval list, sort and heaps, and the
// program with one slab per element type.
func TestCompileAllocs(t *testing.T) {
	k, err := hier.Probe{Type: il.Float, SurfaceBytes: 256, Surfaces: 64, Rounds: 32, Batch: 1}.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	spec := device.Lookup(device.RV770)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ilc.Compile(k, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d IL instructions, %.0f allocs/compile", len(k.Code), allocs)
	const maxAllocs = 22
	if allocs > maxAllocs {
		t.Errorf("Compile allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}
}
