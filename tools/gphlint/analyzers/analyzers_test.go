package analyzers_test

import (
	"testing"

	"gph/tools/gphlint/analyzers"
	"gph/tools/gphlint/internal/testkit"
)

// Each analyzer gets a fixture package seeded with violations (the
// // want comments inside) and a compliant package the analyzer must
// stay silent on — a fixture with no want comments asserts exactly
// zero diagnostics.

func TestHotpath(t *testing.T) {
	testkit.Run(t, analyzers.Hotpath, "gph/hotpath/a")
}

func TestHotpathClean(t *testing.T) {
	testkit.Run(t, analyzers.Hotpath, "gph/hotpath/clean")
}

func TestSnapshotSafety(t *testing.T) {
	testkit.Run(t, analyzers.SnapshotSafety, "gph/snaptest/internal/shard")
}

func TestSnapshotSafetyClean(t *testing.T) {
	testkit.Run(t, analyzers.SnapshotSafety, "gph/snapclean/internal/shard")
}

func TestBorrowAlias(t *testing.T) {
	testkit.Run(t, analyzers.BorrowAlias, "gph/borrow/a")
}

func TestBorrowAliasClean(t *testing.T) {
	testkit.Run(t, analyzers.BorrowAlias, "gph/borrow/clean")
}
