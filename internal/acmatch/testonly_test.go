package acmatch

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// MustNewMatcher is NewMatcher but panics on error, for static rule sets.
func MustNewMatcher(patterns [][]byte, cfg Config) *Matcher {
	m, err := NewMatcher(patterns, cfg)
	if err != nil {
		panic(err)
	}
	return m
}
