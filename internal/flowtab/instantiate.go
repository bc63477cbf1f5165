package flowtab

// This file pins a concrete Table instantiation inside the package so
// the escapecheck gate's `go build -gcflags=-m` pass analyzes the
// //dhl:hotpath method bodies here (generic bodies are only escape-
// analyzed at instantiation). Never called at run time.

func pinInstantiation(t *Table[uint64, uint64], k uint64) uint64 {
	if v, ok := t.Lookup(k); ok {
		return *v
	}
	v, _, err := t.Insert(k)
	if err != nil {
		return 0
	}
	t.Tick()
	if v == nil {
		return 0
	}
	return *v
}

var _ = pinInstantiation
