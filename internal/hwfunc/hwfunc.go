// Package hwfunc implements the accelerator modules DHL ships in its
// accelerator module database: ipsec-crypto (AES-256-CTR + HMAC-SHA1,
// paper §V-B1), pattern-matching (multi-pipeline AC-DFA, §V-B2), the
// loopback module used to benchmark the DMA engine (§IV-A3) and
// ipsec-decrypt, ipsec-crypto's inverse, which the tests use to open what
// the gateway sealed.
//
// Modules are functionally real — they transform the bytes of every record
// — while their temporal behaviour (throughput cap, pipeline delay,
// resource footprint, bitstream size) comes from the Table V/VI
// specifications recorded in internal/perf.
package hwfunc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/acmatch"
	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

// Hardware function names as registered in the accelerator module
// database. NFs pass these to DHL_search_by_name().
const (
	IPsecCryptoName     = "ipsec-crypto"
	PatternMatchingName = "pattern-matching"
	LoopbackName        = "loopback"
	IPsecDecryptName    = "ipsec-decrypt"
)

// Errors returned by the modules.
var (
	ErrNotConfigured = errors.New("hwfunc: module not configured")
	ErrBadConfig     = errors.New("hwfunc: malformed configuration blob")
	ErrBadRecord     = errors.New("hwfunc: malformed record payload")
)

// IPsec request/response framing (see EncodeIPsecRequest).
const (
	// IPsecReqPrefix is the per-record request prefix: 2-byte
	// encryption-start offset.
	IPsecReqPrefix = 2
	// IPsecGrowth is the response growth over the raw frame: 8-byte IV +
	// 12-byte truncated HMAC-SHA1 ICV.
	IPsecGrowth = swcrypto.IVSize + swcrypto.TagSize
)

// PatternMatchTrailer is the pattern-matching response trailer: 2-byte
// match count + 2-byte first-matching-pattern ID.
const PatternMatchTrailer = 4

// Specs returns the stock accelerator module database contents, keyed by
// hardware function name: the three modules the paper evaluates (Table VI +
// Table V) and ipsec-decrypt. A module is here iff an experiment row, a
// bench workload, an example or a test oracle loads it; §IV-C's other
// families (MD5 authentication, regex classifier, data compression) are
// added by the NF that needs one, through Runtime.RegisterModule.
func Specs() map[string]fpga.ModuleSpec {
	return map[string]fpga.ModuleSpec{
		IPsecCryptoName: {
			Name:           IPsecCryptoName,
			LUTs:           perf.IPsecCryptoLUTs,
			BRAM:           perf.IPsecCryptoBRAM,
			ThroughputBps:  perf.IPsecCryptoGbps * 1e9,
			DelayCycles:    perf.IPsecCryptoDelayCycles,
			BitstreamBytes: perf.IPsecCryptoBitstreamBytes,
			New:            func() fpga.Module { return &IPsecCrypto{} },
		},
		PatternMatchingName: {
			Name:           PatternMatchingName,
			LUTs:           perf.PatternMatchingLUTs,
			BRAM:           perf.PatternMatchingBRAM,
			ThroughputBps:  perf.PatternMatchingGbps * 1e9,
			DelayCycles:    perf.PatternMatchingDelayCycles,
			BitstreamBytes: perf.PatternMatchingBitstreamBytes,
			New:            func() fpga.Module { return &PatternMatching{} },
		},
		LoopbackName: {
			Name: LoopbackName,
			// The loopback module is a trivial RX->TX redirect (§IV-A3);
			// its footprint is nominal and its rate far above the DMA cap
			// so the DMA engine is the only bottleneck being measured.
			LUTs:           1200,
			BRAM:           8,
			ThroughputBps:  200e9,
			DelayCycles:    4,
			BitstreamBytes: 1 * 1024 * 1024,
			New:            func() fpga.Module { return &Loopback{} },
		},
		IPsecDecryptName: {
			Name: IPsecDecryptName,
			// The decrypt direction mirrors ipsec-crypto's pipeline.
			LUTs:           perf.IPsecCryptoLUTs,
			BRAM:           perf.IPsecCryptoBRAM,
			ThroughputBps:  perf.IPsecCryptoGbps * 1e9,
			DelayCycles:    perf.IPsecCryptoDelayCycles,
			BitstreamBytes: perf.IPsecCryptoBitstreamBytes,
			New:            func() fpga.Module { return &IPsecDecrypt{} },
		},
	}
}

// --- ipsec-crypto -----------------------------------------------------

// IPsecCrypto is the combined AES-256-CTR + HMAC-SHA1 accelerator module.
// Request records carry a 2-byte offset prefix followed by the raw frame;
// the module encrypts frame[offset:], prepends the 8-byte IV to the
// ciphertext and appends the 12-byte ICV:
//
//	request : [off:2][frame...]
//	response: [frame[:off]][iv:8][E(frame[off:])][icv:12]
//
// The IV is derived from a per-module packet counter, mirroring the
// sequence-number-based IV construction of RFC 3686.
type IPsecCrypto struct {
	engine *swcrypto.Engine
	seq    uint64
}

var _ fpga.Module = (*IPsecCrypto)(nil)

// EncodeIPsecCryptoConfig builds the DHL_acc_configure() blob:
// AES-256 key (32 B) + HMAC-SHA1 key (20 B) + salt (4 B).
func EncodeIPsecCryptoConfig(key, authKey []byte, salt uint32) ([]byte, error) {
	if len(key) != swcrypto.KeySize || len(authKey) != swcrypto.AuthKeySize {
		return nil, fmt.Errorf("%w: key %d/auth %d bytes", ErrBadConfig, len(key), len(authKey))
	}
	blob := make([]byte, 0, swcrypto.KeySize+swcrypto.AuthKeySize+4)
	blob = append(blob, key...)
	blob = append(blob, authKey...)
	blob = binary.BigEndian.AppendUint32(blob, salt)
	return blob, nil
}

// Configure installs keys from an EncodeIPsecCryptoConfig blob.
func (m *IPsecCrypto) Configure(params []byte) error {
	want := swcrypto.KeySize + swcrypto.AuthKeySize + 4
	if len(params) != want {
		return fmt.Errorf("%w: want %d bytes, got %d", ErrBadConfig, want, len(params))
	}
	eng, err := swcrypto.NewEngine(swcrypto.Config{
		Key:     params[:swcrypto.KeySize],
		AuthKey: params[swcrypto.KeySize : swcrypto.KeySize+swcrypto.AuthKeySize],
		Salt:    binary.BigEndian.Uint32(params[want-4:]),
	})
	if err != nil {
		return err
	}
	m.engine = eng
	return nil
}

// EncodeIPsecRequest prepends the encryption offset to a frame, producing
// the module's request payload.
func EncodeIPsecRequest(dst []byte, frame []byte, encOffset int) ([]byte, error) {
	if encOffset < 0 || encOffset > len(frame) || encOffset > 0xffff {
		return dst, fmt.Errorf("%w: offset %d of %d-byte frame", ErrBadRecord, encOffset, len(frame))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(encOffset))
	return append(dst, frame...), nil
}

// ProcessBatch encrypts every record, streaming the response batch into
// dst: the ciphertext is produced in place in the output buffer, with no
// per-record staging.
func (m *IPsecCrypto) ProcessBatch(dst, in []byte) ([]byte, error) {
	if m.engine == nil {
		return nil, ErrNotConfigured
	}
	var cur dhlproto.Cursor
	cur.SetBatch(in)
	var rec dhlproto.Record
	for {
		ok, err := cur.Next(&rec)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(rec.Payload) < IPsecReqPrefix {
			return nil, fmt.Errorf("%w: %d-byte ipsec record", ErrBadRecord, len(rec.Payload))
		}
		off := int(binary.BigEndian.Uint16(rec.Payload[:2]))
		frame := rec.Payload[IPsecReqPrefix:]
		if off > len(frame) {
			return nil, fmt.Errorf("%w: offset %d beyond %d-byte frame", ErrBadRecord, off, len(frame))
		}
		m.seq++
		iv := m.seq
		var aerr error
		dst, aerr = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, len(frame)+IPsecGrowth)
		if aerr != nil {
			return nil, aerr
		}
		dst = append(dst, frame[:off]...)
		dst = binary.BigEndian.AppendUint64(dst, iv)
		ctStart := len(dst)
		dst = append(dst, frame[off:]...)
		tag := m.engine.Seal(dst[ctStart:], iv)
		dst = append(dst, tag[:]...)
	}
	return dst, nil
}

// --- ipsec-decrypt -------------------------------------------------------

// IPsecDecrypt reverses IPsecCrypto: request records carry a 2-byte offset
// prefix plus an encrypted frame ([hdr][iv:8][ct][icv:12]); the response
// is the decrypted frame ([hdr][plaintext]). Records failing
// authentication are returned with an empty payload after the offset so
// the NF can count and drop them (hardware signals the ICV failure
// in-band).
type IPsecDecrypt struct {
	inner IPsecCrypto
}

var _ fpga.Module = (*IPsecDecrypt)(nil)

// Configure installs keys from an EncodeIPsecCryptoConfig blob.
func (m *IPsecDecrypt) Configure(params []byte) error { return m.inner.Configure(params) }

// ProcessBatch authenticates and decrypts every record, producing the
// plaintext in place in dst.
func (m *IPsecDecrypt) ProcessBatch(dst, in []byte) ([]byte, error) {
	if m.inner.engine == nil {
		return nil, ErrNotConfigured
	}
	var cur dhlproto.Cursor
	cur.SetBatch(in)
	var rec dhlproto.Record
	for {
		ok, err := cur.Next(&rec)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(rec.Payload) < IPsecReqPrefix {
			return nil, fmt.Errorf("%w: %d-byte decrypt record", ErrBadRecord, len(rec.Payload))
		}
		off := int(binary.BigEndian.Uint16(rec.Payload[:2]))
		frame := rec.Payload[IPsecReqPrefix:]
		if off > len(frame) || len(frame)-off < IPsecGrowth {
			return nil, fmt.Errorf("%w: %d-byte encrypted body at offset %d", ErrBadRecord, len(frame), off)
		}
		body := frame[off:]
		iv := binary.BigEndian.Uint64(body[:8])
		var tag [12]byte
		copy(tag[:], body[len(body)-12:])
		hdrStart := len(dst)
		var aerr error
		dst, aerr = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, len(frame)-IPsecGrowth)
		if aerr != nil {
			return nil, aerr
		}
		dst = append(dst, frame[:off]...)
		ctStart := len(dst)
		dst = append(dst, body[8:len(body)-12]...)
		if derr := m.inner.engine.Open(dst[ctStart:], iv, tag); derr != nil {
			// On auth failure the response carries only the cleartext
			// header: the NF sees a truncated packet and drops it.
			dst = dst[:hdrStart]
			dst, aerr = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, off)
			if aerr != nil {
				return nil, aerr
			}
			dst = append(dst, frame[:off]...)
		}
	}
	return dst, nil
}

// --- pattern-matching --------------------------------------------------

// PatternMatching is the multi-pattern string-matching accelerator module
// (the AC-DFA port of Jiang et al. [35]). Request records carry the raw
// frame; responses echo the frame and append a 4-byte trailer:
//
//	response: [frame...][matchCount:2][firstPatternID:2]
//
// firstPatternID is 0xffff when nothing matched.
type PatternMatching struct {
	matcher *acmatch.Matcher
}

var _ fpga.Module = (*PatternMatching)(nil)

// EncodePatternConfig builds the DHL_acc_configure() blob for a rule set:
// [caseFold:1][count:2] then per pattern [len:2][bytes].
func EncodePatternConfig(patterns [][]byte, caseFold bool) ([]byte, error) {
	if len(patterns) == 0 || len(patterns) > 0xffff {
		return nil, fmt.Errorf("%w: %d patterns", ErrBadConfig, len(patterns))
	}
	blob := make([]byte, 0, 3+len(patterns)*8)
	if caseFold {
		blob = append(blob, 1)
	} else {
		blob = append(blob, 0)
	}
	return appendList(blob, patterns)
}

// appendList appends the item list the pattern-matching rule-set blob ends
// in: [count:2], then per item [len:2][bytes], no item empty. The caller
// has bounded the count.
func appendList(blob []byte, items [][]byte) ([]byte, error) {
	blob = binary.BigEndian.AppendUint16(blob, uint16(len(items)))
	for i, it := range items {
		if len(it) == 0 || len(it) > 0xffff {
			return nil, fmt.Errorf("%w: item %d has %d bytes", ErrBadConfig, i, len(it))
		}
		blob = binary.BigEndian.AppendUint16(blob, uint16(len(it)))
		blob = append(blob, it...)
	}
	return blob, nil
}

// decodeList is appendList's inverse. The blob comes from an NF, so it
// accepts exactly what the encoders produce: the declared number of items
// and nothing after the last of them. The items alias list.
func decodeList(list []byte) ([][]byte, error) {
	if len(list) < 2 {
		return nil, fmt.Errorf("%w: %d-byte item list", ErrBadConfig, len(list))
	}
	count := int(binary.BigEndian.Uint16(list[:2]))
	off := 2
	// Sized by what the blob can hold, not by what it declares.
	items := make([][]byte, 0, min(count, len(list)/2))
	for i := 0; i < count; i++ {
		if len(list)-off < 2 {
			return nil, fmt.Errorf("%w: truncated item %d", ErrBadConfig, i)
		}
		n := int(binary.BigEndian.Uint16(list[off : off+2]))
		off += 2
		if len(list)-off < n {
			return nil, fmt.Errorf("%w: truncated item %d body", ErrBadConfig, i)
		}
		items = append(items, list[off:off+n])
		off += n
	}
	if off != len(list) {
		return nil, fmt.Errorf("%w: %d bytes after the last of %d items", ErrBadConfig, len(list)-off, count)
	}
	return items, nil
}

// decodePatternConfig is EncodePatternConfig's inverse, as strict as
// decodeList: the flag is 0 or 1. The patterns alias params.
func decodePatternConfig(params []byte) (patterns [][]byte, caseFold bool, err error) {
	if len(params) == 0 || params[0] > 1 {
		return nil, false, fmt.Errorf("%w: case-fold flag missing or not 0/1 in %d bytes", ErrBadConfig, len(params))
	}
	patterns, err = decodeList(params[1:])
	return patterns, params[0] == 1, err
}

// PatternMatchingMaxStates is the AC-DFA state budget implied by the
// module's BRAM allocation (Table VI: 524 x 36Kb blocks; each state needs
// a 256-entry next-state row of 4 B in the multi-pipeline AC-DFA [35]).
// §V-F: "If we decrease the size of the AC-DFA pipeline, it can put more
// pattern-matching accelerator modules."
const PatternMatchingMaxStates = perf.PatternMatchingBRAM * (36 * 1024 / 8) / (256 * 4)

// Configure compiles the rule set into the module's AC-DFA.
func (m *PatternMatching) Configure(params []byte) error {
	patterns, caseFold, err := decodePatternConfig(params)
	if err != nil {
		return err
	}
	matcher, err := acmatch.NewMatcher(patterns, acmatch.Config{CaseFold: caseFold})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	// Enforce the AC-DFA state memory budget the module's BRAM allocation
	// implies (Table VI / §V-F); an oversized rule set cannot fit the
	// multi-pipeline state tables.
	if matcher.States() > PatternMatchingMaxStates {
		return fmt.Errorf("%w: rule set compiles to %d AC-DFA states, state memory holds %d",
			ErrBadConfig, matcher.States(), PatternMatchingMaxStates)
	}
	m.matcher = matcher
	return nil
}

// ProcessBatch scans every record and appends it to dst with the match
// trailer. Like the module's pipelines it takes the batch several records
// at a time: acmatch.Lanes of them go through the automaton together and
// their responses follow in record order.
func (m *PatternMatching) ProcessBatch(dst, in []byte) ([]byte, error) {
	if m.matcher == nil {
		return nil, ErrNotConfigured
	}
	var (
		cur      dhlproto.Cursor
		recs     [acmatch.Lanes]dhlproto.Record
		payloads [acmatch.Lanes][]byte
		tallies  [acmatch.Lanes]acmatch.Tally
	)
	cur.SetBatch(in)
	for more := true; more; {
		n := 0
		for n < len(recs) {
			ok, err := cur.Next(&recs[n])
			if err != nil {
				return nil, err
			}
			if !ok {
				more = false
				break
			}
			payloads[n] = recs[n].Payload
			n++
		}
		m.matcher.ScanLanes(payloads[:n], tallies[:n])
		for i, rec := range recs[:n] {
			count, first := min(tallies[i].Count, 0xffff), uint16(0xffff)
			if count > 0 {
				first = uint16(tallies[i].First)
			}
			var aerr error
			dst, aerr = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, len(rec.Payload)+PatternMatchTrailer)
			if aerr != nil {
				return nil, aerr
			}
			dst = append(dst, rec.Payload...)
			dst = binary.BigEndian.AppendUint16(dst, uint16(count))
			dst = binary.BigEndian.AppendUint16(dst, first)
		}
	}
	return dst, nil
}

// DecodePatternTrailer splits a pattern-matching response payload into the
// original frame and the match result.
func DecodePatternTrailer(resp []byte) (frame []byte, matchCount int, firstPattern uint16, err error) {
	if len(resp) < PatternMatchTrailer {
		return nil, 0, 0, fmt.Errorf("%w: %d-byte pattern response", ErrBadRecord, len(resp))
	}
	body := resp[:len(resp)-PatternMatchTrailer]
	count := int(binary.BigEndian.Uint16(resp[len(resp)-4 : len(resp)-2]))
	first := binary.BigEndian.Uint16(resp[len(resp)-2:])
	return body, count, first, nil
}

// --- loopback ----------------------------------------------------------

// Loopback "simply redirects the packets received from RX channels to TX
// channels without any involvement of other components" (§IV-A3); it is
// the module behind the Figure 4 DMA benchmark.
type Loopback struct{}

var _ fpga.Module = (*Loopback)(nil)

// Configure accepts and ignores any parameters.
func (Loopback) Configure([]byte) error { return nil }

// ProcessBatch echoes the batch into dst — allocation-free when dst has
// capacity, which is what makes loopback the pure-DMA benchmark module.
func (Loopback) ProcessBatch(dst, in []byte) ([]byte, error) {
	return append(dst, in...), nil
}
