package cpu

import "testing"

// TestForceRestores: a Setting reads back as forced, field by field, and
// restore puts back what was in force before it, nesting.
func TestForceRestores(t *testing.T) {
	if got := Forced(); got != (Setting{}) {
		t.Fatalf("%+v in force before any test forced one", got)
	}
	outer := Setting{Route: RouteScan, Kernel: KernelPortable, Projector: ProjectorGather}
	restoreOuter := Force(outer)
	inner := Setting{Route: RouteIndex, Kernel: KernelGo}
	restoreInner := Force(inner)
	if got := Forced(); got != inner {
		t.Fatalf("forced %+v, read %+v", inner, got)
	}
	restoreInner()
	if got := Forced(); got != outer {
		t.Fatalf("restored to %+v, want %+v", got, outer)
	}
	restoreOuter()
	if got := Forced(); got != (Setting{}) {
		t.Fatalf("restored to %+v, want nothing forced", got)
	}
}
