package vek

// ForceGeneric runs fn with the AVX2 dispatch switched off, so one test
// binary exercises both kernel paths. Not safe for concurrent use with
// other kernel callers: the tests that use it do not run in parallel.
func ForceGeneric(fn func()) {
	saved := simdOn
	simdOn = false
	defer func() { simdOn = saved }()
	fn()
}
