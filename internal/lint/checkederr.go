package lint

import (
	"go/ast"
)

// CheckedErr flags calls to the DHL public API whose error result is
// dropped entirely — a statement-expression call like `sys.SendPackets(id,
// pkts)` silently loses both the accepted-packet count and the error. An
// explicit `_ =` discard is accepted as a deliberate decision (the data
// path legitimately ignores Pool.Free errors on drop paths), mirroring the
// policy of classic errcheck without -blank.
type CheckedErr struct{}

// apiMethods are the DHL API methods whose results must not be dropped,
// on any type in this module that defines them:
//
//   - the Table II surface (Register/LoadPR/SearchByName/AccConfigure/
//     SendPackets/ReceivePackets) and the mempool contract (Pool.Free/
//     FreeBulk/AllocBulk);
//   - the recovery surface (Device.Reload/ResetRegion);
//   - the operational surface's lifecycle (System.Serve, Exporter.Serve/
//     Close) and the management client (ControlClient.Call): a dropped
//     error there is an endpoint that never came up or an operation that
//     silently did not happen;
//   - the adaptive-batching setters (SetAcc*/SetBurst): a dropped error
//     is a retune that silently did not happen;
//   - every error-returning method of the management surface,
//     ctlplane.Backend (TestCheckedErrCoversBackend holds the list to
//     it): a dropped OfflineBoard or Migrate error strands accelerators
//     on a board the caller believes they left.
var apiMethods = map[string]bool{
	"SendPackets":    true,
	"ReceivePackets": true,
	"Register":       true,
	"LoadPR":         true,
	"SearchByName":   true,
	"AccConfigure":   true,
	"RegisterModule": true,
	"Free":           true,
	"FreeBulk":       true,
	"AllocBulk":      true,
	"Reload":         true,
	"ResetRegion":    true,
	"Place":          true,
	"Serve":          true,
	"Close":          true,
	"Call":           true,

	"SetAccBatchBytes":   true,
	"SetAccFlushTimeout": true,
	"SetBurst":           true,

	// ctlplane.Backend.
	"Unregister":      true,
	"Evict":           true,
	"InstallFallback": true,
	"ClearFallback":   true,
	"SetBatchBytes":   true,
	"AccInfo":         true,
	"AccHealth":       true,
	"Stats":           true,
	"Migrate":         true,
	"Replicate":       true,
	"Rebalance":       true,
	"DrainBoard":      true,
	"UndrainBoard":    true,
	"OfflineBoard":    true,
	"AutoTuneEnable":  true,
	"AutoTuneDisable": true,
}

// Name implements Analyzer.
func (*CheckedErr) Name() string { return "checkederr" }

// Doc implements Analyzer.
func (*CheckedErr) Doc() string {
	return "flags DHL API calls (SendPackets, Register, LoadPR, Pool.Free, ...) whose error result is dropped"
}

// Check implements Analyzer.
func (c *CheckedErr) Check(pkg *Package) []Finding {
	var out []Finding
	report := func(call *ast.CallExpr, how string) {
		f := calleeOf(pkg.Info, call)
		if f == nil || f.Pkg() == nil || !inModule(f.Pkg().Path()) {
			return
		}
		if !apiMethods[f.Name()] || !lastResultIsError(f) {
			return
		}
		out = append(out, finding(c.Name(), pkg.Position(call.Pos()),
			"result of %s %s; handle the error or discard it explicitly with _ =", f.Name(), how))
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					report(call, "is dropped")
				}
			case *ast.GoStmt:
				report(n.Call, "is dropped (go statement)")
			}
			return true
		})
	}
	return out
}
