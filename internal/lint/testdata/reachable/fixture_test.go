package fixture

// A test file's references do not count: TestOnly and Twice stay
// flagged in fixture.go.
var _ = TestOnly{n: 2}.Twice()
