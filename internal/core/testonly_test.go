package core

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// StopCores halts both poll loops and reclaims the transfer layer's
// buffered work: staged (never-sent) packets are freed as DropNoRoute,
// completions already on the ring are failed so their buffers return, and
// the watchdog timer is disarmed. In-flight DMA/dispatch completions that
// fire after the stop are counted as CompletionDrops and failed by
// c2hDone. The shared IBQ is deliberately left intact — its packets are
// still owned by the producers' flow-control loop, and a restarted
// transfer layer (tests re-wire testbeds) would drain them.
func (r *Runtime) StopCores(node int) {
	if node < 0 || node >= r.cfg.Nodes || r.nodeTx[node] == nil {
		return
	}
	tx, rx := r.nodeTx[node], r.nodeRx[node] // AttachCores sets both or neither
	rx.loop.Stop()
	if rx.wdTimer != nil {
		rx.wdTimer.Stop()
	}
	tx.loop.Stop()
	tx.stopped = true
	for _, acc := range tx.order {
		tx.dropStaged(tx.staging[acc])
	}
	var burst [64]*inflight
	for {
		n := rx.completions.DequeueBurst(burst[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			tx.stats.CompletionDrops++
			burst[i].fail()
			burst[i] = nil
		}
	}
}
