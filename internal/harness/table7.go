package harness

// locResult is one Table VII row: the lines of code needed to shift a
// CPU-only NF to its DHL version.
type locResult struct {
	Module string
	LoC    int
}

// runTable7 counts the DHL-specific statements of this repository's NFs:
// every statement of the DHL variant that performs DHL API interaction
// (register/search/configure/tag/send/receive and the request/response
// shaping) — the same accounting as the paper's "lines modified or added to
// shift a software function call to the hardware function call".
func runTable7() []locResult {
	return []locResult{
		{Module: "ipsec-crypto", LoC: len(ipsecDHLLoC)},
		{Module: "pattern-matching", LoC: len(nidsDHLLoC)},
	}
}

// locEntry is one added or modified statement of a DHL variant relative to
// the CPU-only NF: the file it is in (from the repository root) and its
// text. TestTable7Counts fails on an entry the file does not contain, so
// the count is of statements that exist.
type locEntry struct{ file, stmt string }

const (
	ipsecSrc = "internal/nf/ipsec.go"
	nidsSrc  = "internal/nf/nids.go"
	// The Listing 2 setup sequence is one function every DHL NF shares; its
	// three API calls are counted for each, the call into it is not.
	setupSrc = "internal/nf/offload.go"
	// The send and receive calls are the I/O cores', not the NF's own:
	// every DHL NF of the testbed goes through the same two stages.
	stageSrc = "internal/harness/stage.go"
)

var ipsecDHLLoC = []locEntry{
	{setupSrc, "nfID, err := rt.Register(name, node)"},
	{setupSrc, "accID, err := rt.SearchByName(hf, node)"},
	{ipsecSrc, "blob, err := hwfunc.EncodeIPsecCryptoConfig(sa.Key, sa.AuthKey, sa.Salt)"},
	{setupSrc, "if err := rt.AccConfigure(accID, blob); err != nil {"},
	{ipsecSrc, "return &IPsecGatewayDHL{sadb: sadb, offload: off}, nil"},
	{ipsecSrc, "hdr, err := m.Prepend(hwfunc.IPsecReqPrefix)"},
	{ipsecSrc, "binary.BigEndian.PutUint16(hdr, uint16(eth.EtherLen+eth.IPv4Len))"},
	{ipsecSrc, "m.AccID = uint16(g.AccID)"},
	{stageSrc, "acc, err := rt.SendPackets(app.ID(), pkts)"},
	{stageSrc, "n, err := rt.ReceivePackets(app.ID(), buf[:burstSize])"},
	// The response comes from hardware: check it before trusting it.
	{ipsecSrc, "if m.Len() < eth.EtherLen+eth.IPv4Len+espOverhead {"},
	// Moved from the inline seal to the OBQ drain.
	{ipsecSrc, "fixupESPHeader(m)"},
}

var nidsDHLLoC = []locEntry{
	{setupSrc, "nfID, err := rt.Register(name, node)"},
	{setupSrc, "accID, err := rt.SearchByName(hf, node)"},
	{nidsSrc, "blob, err := hwfunc.EncodePatternConfig(rules.Patterns(), rules.CaseFold())"},
	{setupSrc, "if err := rt.AccConfigure(accID, blob); err != nil {"},
	{nidsSrc, "return &NIDSDHL{rules: rules, offload: off}, nil"},
	{nidsSrc, "m.AccID = uint16(n.AccID)"},
	{stageSrc, "acc, err := rt.SendPackets(app.ID(), pkts)"},
	{stageSrc, "n, err := rt.ReceivePackets(app.ID(), buf[:burstSize])"},
	{nidsSrc, "_, count, first, err := hwfunc.DecodePatternTrailer(m.Data())"},
	{nidsSrc, "if terr := m.Trim(hwfunc.PatternMatchTrailer); terr != nil {"},
	{nidsSrc, "if count == 0 {"},
	// Rule-option evaluation moved to the OBQ drain.
	{nidsSrc, "rule, rerr := n.rules.Rule(int(first))"},
}
