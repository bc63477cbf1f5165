package core

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// StopCores freezes a node's transfer layer: both poll loops and the
// watchdog timer stop, so a test can drive the arena and the Distributor
// by hand without the cores racing it.
func (r *Runtime) StopCores(node int) {
	r.nodeTx[node].loop.Stop()
	rx := r.nodeRx[node]
	rx.loop.Stop()
	if rx.wdTimer != nil {
		rx.wdTimer.Stop()
	}
}
