package nf

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
)

// offload is what a DHL-version NF holds of the runtime once it is set
// up: the identifiers it tags its packets with. Embedded, so they read as
// the NF's own fields.
type offload struct {
	// NFID and AccID are the identifiers obtained from DHL_register() and
	// DHL_search_by_name().
	NFID  core.NFID
	AccID core.AccID
}

// ID reports the NF's nf_id.
func (o offload) ID() core.NFID { return o.NFID }

// openOffload is the Listing 2 setup sequence, which every DHL-version NF
// runs: DHL_register() as name on node, DHL_search_by_name() for the
// hardware function hf on that node, DHL_acc_configure() with blob.
func openOffload(rt *core.Runtime, name string, node int, hf string, blob []byte) (offload, error) {
	nfID, err := rt.Register(name, node)
	if err != nil {
		return offload{}, fmt.Errorf("nf: DHL_register: %w", err)
	}
	accID, err := rt.SearchByName(hf, node)
	if err != nil {
		return offload{}, fmt.Errorf("nf: DHL_search_by_name: %w", err)
	}
	if err := rt.AccConfigure(accID, blob); err != nil {
		return offload{}, fmt.Errorf("nf: DHL_acc_configure: %w", err)
	}
	return offload{NFID: nfID, AccID: accID}, nil
}
