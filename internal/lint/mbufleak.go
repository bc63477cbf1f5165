package lint

import (
	"go/ast"
	"go/types"
)

// MbufLeak enforces the DPDK mempool contract on mbuf ownership: a
// function that obtains buffers from mbuf.Pool.Alloc/AllocBulk
// must, on every path out, either release them (Pool.Free/FreeBulk) or
// hand ownership elsewhere — enqueue onto a ring, pass to SendPackets or
// any helper, store into a field/slice, or return them to the caller.
//
// The path-sensitive machinery lives in ownership.go; this file only
// describes what acquires an mbuf. Error-check branches guarding the
// acquisition's own error variable are recognised and exempt (the mbuf
// was never allocated on those paths).
type MbufLeak struct{}

const mbufLeakName = "mbufleak"

// Name implements Analyzer.
func (*MbufLeak) Name() string { return mbufLeakName }

// Doc implements Analyzer.
func (*MbufLeak) Doc() string {
	return "flags functions that obtain mbufs (Pool.Alloc/AllocBulk) and can return without freeing or handing them off"
}

// Check implements Analyzer.
func (*MbufLeak) Check(pkg *Package) []Finding { return checkOwnership(pkg) }

// mbufAcquire classifies an mbuf-acquiring call.
func mbufAcquire(info *types.Info, call *ast.CallExpr) (acqSpec, bool) {
	f := calleeOf(info, call)
	switch {
	case methodOn(f, mbufPkgPath, "Pool", "Alloc"):
		return acqSpec{kind: "Alloc"}, true
	case methodOn(f, mbufPkgPath, "Pool", "AllocBulk"):
		return acqSpec{kind: "AllocBulk", argBind: true}, true
	}
	return acqSpec{}, false
}
