// Package knob holds config structs whose every exported field a
// non-test file sets, in each way the unreferenced analyzer counts as a
// write; the one field only its default sets carries a reasoned allow
// directive.
package knob

// Config is set field by field by the root package.
type Config struct {
	// Keyed is set in a keyed composite literal.
	Keyed int
	// Assigned is set by an assignment.
	Assigned int
	// Bumped is set by an increment.
	Bumped int
	// Pointed is set through its address.
	Pointed int
	// Defaulted has a default below, and the root sets it as well.
	Defaulted int
	// Crossed is set under a zero test of another config value's field,
	// which is a setting, not this value's default.
	Crossed int
	// Tuned is set only by its own default.
	//
	//dhl:allow unreferenced the fixture's sweep test varies it
	Tuned int
	// hidden is unexported: no caller could set it.
	hidden int
}

// Use is called from the root package.
func Use(cfg Config) int {
	if cfg.Defaulted == 0 {
		cfg.Defaulted = 4
	}
	if cfg.Tuned <= 0 {
		cfg.Tuned = 8
	}
	return cfg.Keyed + cfg.Crossed + cfg.Assigned + cfg.Bumped + cfg.Pointed + cfg.Defaulted + cfg.Tuned + cfg.hidden
}

// PairConfig is set by an unkeyed composite literal.
type PairConfig struct{ A, B int }

// Sum is called from the root package.
func Sum(p PairConfig) int { return p.A + p.B }

// TableConfig is generic. The root's instantiation sets every field;
// First and Last, whose type is the parameter, are fields of the
// instantiated struct that only Origin maps back to these.
type TableConfig[K comparable] struct {
	Size  int
	First K
	Last  K
}

// Size is called from the root package.
func Size[K comparable](cfg TableConfig[K]) int {
	if cfg.First == cfg.Last {
		return 0
	}
	return cfg.Size
}
