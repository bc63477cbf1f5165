package faultinject

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// MustPlan is NewPlan for tests and examples with known-good specs.
func MustPlan(seed uint64, specs ...Spec) *Plan {
	p, err := NewPlan(seed, specs...)
	if err != nil {
		panic(err)
	}
	return p
}
