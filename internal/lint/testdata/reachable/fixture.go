// Package fixture exercises the reachable analyzer: exported
// declarations no non-test file references outside their own
// declaration are flagged; interface-satisfying methods and
// declarations carrying a reasoned //wmlint:ignore reachable directive
// are not, and a directive without a reason is itself a finding.
//
//wmlint:fixture repro/internal/reachable
package fixture

import "fmt"

// Used is referenced by describe.
func Used() int { return 1 }

// Unreferenced has no caller at all.
func Unreferenced() int { return 2 } // want `exported func Unreferenced is referenced by no non-test file`

// Recursive refers to itself only, inside its own declaration.
func Recursive(n int) int { // want `exported func Recursive is referenced by no non-test file`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// TestOnly is used by fixture_test.go and by its own method, neither of
// which counts.
type TestOnly struct{ n int } // want `exported type TestOnly is referenced by no non-test file`

// Twice is reachable only through a TestOnly value.
func (t TestOnly) Twice() int { return 2 * t.n } // want `exported method Twice is referenced by no non-test file`

// Named is referenced by describe.
type Named struct{}

// String satisfies fmt.Stringer, so it may be reached through the
// interface without a static reference.
func (Named) String() string { return "named" }

// Limit is referenced by describe; Spare is not.
const (
	Limit = 3
	Spare = 4 // want `exported const Spare is referenced by no non-test file`
)

// Registry is referenced by no one.
var Registry = map[string]int{} // want `exported var Registry is referenced by no non-test file`

// Harness stays: the directive names its caller outside the module.
//
//wmlint:ignore reachable called by the benchmark module, which the lint run does not load
func Harness() {}

// Bare carries a directive with no reason.
//
//wmlint:ignore reachable
func Bare() {} // want `//wmlint:ignore reachable without a reason`

func describe() string {
	return fmt.Sprint(Used(), Named{}, Limit)
}

var _ = describe
