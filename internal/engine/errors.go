package engine

import (
	"errors"
	"fmt"

	"gph/internal/bitvec"
	"gph/internal/partition"
)

// ErrInvalidQuery marks search errors caused by the caller's query
// input rather than an internal failure; servers use errors.Is to map
// the former to client errors. The specific sentinels below all wrap
// it, so errors.Is(err, ErrInvalidQuery) matches any of them.
var ErrInvalidQuery = errors.New("invalid query")

// ErrDimMismatch reports a query whose dimensionality differs from
// the index's; match with errors.Is.
var ErrDimMismatch = fmt.Errorf("query dimension mismatch: %w", ErrInvalidQuery)

// ErrNegativeTau reports a negative search threshold; match with
// errors.Is.
var ErrNegativeTau = fmt.Errorf("negative threshold: %w", ErrInvalidQuery)

// ErrTauExceedsBuild reports a query threshold beyond the engine's
// MaxTau — engines whose structure depends on the build-time τ
// (hmsearch, lsh, partalloc) cannot answer past it; match with
// errors.Is.
var ErrTauExceedsBuild = fmt.Errorf("threshold exceeds build threshold: %w", ErrInvalidQuery)

// CheckBuild validates what every engine's constructor requires of its
// collection — at least one vector, one dimensionality — and returns
// that dimensionality. The errors wrap ErrInvalidQuery (a mixed
// collection's through ErrDimMismatch), so a rejected build classifies
// like a rejected query. An engine built for one τ checks that with
// CheckBuildTau.
func CheckBuild(data []bitvec.Vector) (dims int, err error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("empty data collection: %w", ErrInvalidQuery)
	}
	dims = data[0].Dims()
	for i, v := range data {
		if v.Dims() != dims {
			return 0, fmt.Errorf("vector %d has %d dims, want %d: %w", i, v.Dims(), dims, ErrDimMismatch)
		}
	}
	return dims, nil
}

// CheckBuildTau validates the τ a τ-bounded engine is built for; the
// error wraps ErrTauExceedsBuild: under a negative bound no query fits.
func CheckBuildTau(tau int) error {
	if tau < 0 {
		return fmt.Errorf("build τ=%d is negative: %w", tau, ErrTauExceedsBuild)
	}
	return nil
}

// CheckArrangement validates the arrangement a partition-based engine
// is built under, for rows of dims dimensions: every dimension covered
// exactly once.
func CheckArrangement(parts *partition.Partitioning, dims int) error {
	if err := parts.Validate(); err != nil {
		return fmt.Errorf("invalid arrangement: %w", err)
	}
	if parts.Dims != dims {
		return fmt.Errorf("arrangement covers %d dims, the rows have %d", parts.Dims, dims)
	}
	return nil
}

// CheckQuery validates the query contract shared by every engine:
// matching dimensionality and a non-negative threshold. The returned
// errors wrap ErrDimMismatch / ErrNegativeTau (and transitively
// ErrInvalidQuery).
func CheckQuery(q bitvec.Vector, dims, tau int) error {
	if q.Dims() != dims {
		return fmt.Errorf("query has %d dims, index has %d: %w", q.Dims(), dims, ErrDimMismatch)
	}
	if tau < 0 {
		return fmt.Errorf("threshold %d: %w", tau, ErrNegativeTau)
	}
	return nil
}

// CheckTauBound validates tau against a build-time bound; the error
// wraps ErrTauExceedsBuild.
func CheckTauBound(tau, buildTau int) error {
	if tau > buildTau {
		return fmt.Errorf("query τ=%d exceeds build τ=%d: %w", tau, buildTau, ErrTauExceedsBuild)
	}
	return nil
}
