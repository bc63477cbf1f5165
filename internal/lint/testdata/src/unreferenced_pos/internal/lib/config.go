package lib

// Config is what the root package builds a gauge from. Only Scale is a
// knob; the other fields are the ways a field nobody sets can look.
type Config struct {
	// Scale is set by the root package.
	Scale int
	// Limit is set only by its own default.
	Limit int
	// Burst is set only beside Limit's default, under Limit's zero test.
	Burst int
	// Label is set only by lib_test.go.
	Label string
	// Spare is read but never set.
	Spare bool
}

// Gauge is called from the root package.
func Gauge(cfg Config) int {
	if cfg.Limit == 0 {
		cfg.Limit = 10
		cfg.Burst = 4
	}
	if cfg.Spare {
		return 0
	}
	return cfg.Scale*cfg.Limit + cfg.Burst + len(cfg.Label)
}

// TableConfig is generic: the root's instantiation sets Size, which
// counts for the declaration's field, and nothing sets Hash.
type TableConfig[K comparable] struct {
	Size int
	Hash func(K) uint64
}

// TableSize is called from the root package.
func TableSize[K comparable](cfg TableConfig[K]) int {
	if cfg.Hash != nil {
		return 0
	}
	return cfg.Size
}
