package placement

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// Primary returns the primary endpoint, or nil.
func (r *Route) Primary() *Endpoint {
	for i := range r.eps {
		if r.eps[i].Primary {
			return &r.eps[i]
		}
	}
	return nil
}
