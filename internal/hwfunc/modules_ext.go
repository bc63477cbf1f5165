package hwfunc

import (
	"bytes"
	"compress/flate"
	"crypto/hmac"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/redfa"
)

// Extended accelerator module names. §IV-C lists the module families DHL's
// base design hosts: "Encryption, Decryption, MD5 authentication, Regex
// Classifier, Data Compression, etc". The paper's evaluation exercises
// ipsec-crypto and pattern-matching; the remaining families are provided
// here so the library covers the full catalogue. Their resource footprints
// are representative values consistent with the base-design specification
// (256-bit AXI4-stream @ 250 MHz), not published figures.
const (
	IPsecDecryptName    = "ipsec-decrypt"
	MD5AuthName         = "md5-auth"
	RegexClassifierName = "regex-classifier"
	DataCompressionName = "data-compression"
)

// MD5DigestSize is the md5-auth response trailer length.
const MD5DigestSize = md5.Size

// RegexTrailer is the regex-classifier response trailer: 2-byte rule match
// bitmap (rules 0..15) + 2-byte first-matching-rule id (0xffff for none).
const RegexTrailer = 4

// PatternMatchingMaxStates is the AC-DFA state budget implied by the
// module's BRAM allocation (Table VI: 524 x 36Kb blocks; each state needs
// a 256-entry next-state row of 4 B in the multi-pipeline AC-DFA [35]).
// §V-F: "If we decrease the size of the AC-DFA pipeline, it can put more
// pattern-matching accelerator modules."
const PatternMatchingMaxStates = perf.PatternMatchingBRAM * (36 * 1024 / 8) / (256 * 4)

// RegexClassifierMaxStates is the aggregate DFA state budget of the
// regex-classifier module's state memory.
const RegexClassifierMaxStates = 2048

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

// --- md5-auth -------------------------------------------------------------

// MD5Auth computes an HMAC-MD5 digest over each record and appends it:
//
//	response: [payload...][digest:16]
type MD5Auth struct {
	key []byte
	// mac is the HMAC state, created once at Configure and Reset per
	// record so ProcessBatch does not rebuild the keyed hash every time.
	mac hash.Hash
}

var _ fpga.Module = (*MD5Auth)(nil)

// Configure installs the HMAC key (1..64 bytes).
func (m *MD5Auth) Configure(params []byte) error {
	if len(params) == 0 || len(params) > 64 {
		return fmt.Errorf("%w: md5-auth key must be 1..64 bytes, got %d", ErrBadConfig, len(params))
	}
	m.key = append([]byte(nil), params...)
	m.mac = hmac.New(md5.New, m.key)
	return nil
}

// ProcessBatch appends each record to dst with its digest trailer; the
// digest is summed directly into the output buffer.
func (m *MD5Auth) ProcessBatch(dst, in []byte) ([]byte, error) {
	if m.mac == nil {
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
		m.mac.Reset()
		m.mac.Write(rec.Payload)
		var aerr error
		dst, aerr = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, len(rec.Payload)+MD5DigestSize)
		if aerr != nil {
			return nil, aerr
		}
		dst = append(dst, rec.Payload...)
		dst = m.mac.Sum(dst)
	}
	return dst, nil
}

// VerifyMD5Trailer checks a response record against a key, returning the
// original payload. NF-side helper.
func VerifyMD5Trailer(resp, key []byte) ([]byte, error) {
	if len(resp) < MD5DigestSize {
		return nil, fmt.Errorf("%w: %d-byte md5 response", ErrBadRecord, len(resp))
	}
	payload := resp[:len(resp)-MD5DigestSize]
	mac := hmac.New(md5.New, key)
	mac.Write(payload)
	if !hmac.Equal(mac.Sum(nil), resp[len(resp)-MD5DigestSize:]) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrBadRecord)
	}
	return payload, nil
}

// --- regex-classifier ------------------------------------------------------

// RegexClassifier matches each record against up to 16 compiled regex
// rules (DFAs) and appends a match bitmap:
//
//	response: [payload...][bitmap:2][firstRule:2]
type RegexClassifier struct {
	rules []*redfa.DFA
}

var _ fpga.Module = (*RegexClassifier)(nil)

// EncodeRegexConfig builds the DHL_acc_configure() blob:
// [count:2] then per rule [len:2][pattern bytes].
func EncodeRegexConfig(patterns []string) ([]byte, error) {
	if len(patterns) == 0 || len(patterns) > 16 {
		return nil, fmt.Errorf("%w: regex-classifier takes 1..16 rules, got %d", ErrBadConfig, len(patterns))
	}
	return appendList(nil, patterns)
}

// Configure compiles the rules, enforcing the module's aggregate DFA
// state budget (its BRAM-backed state memory).
func (m *RegexClassifier) Configure(params []byte) error {
	patterns, err := decodeList(params)
	if err != nil {
		return err
	}
	if len(patterns) == 0 || len(patterns) > 16 {
		return fmt.Errorf("%w: %d rules", ErrBadConfig, len(patterns))
	}
	rules := make([]*redfa.DFA, 0, len(patterns))
	totalStates := 0
	for i, p := range patterns {
		d, err := redfa.Compile(string(p), redfa.CompileConfig{MaxStates: RegexClassifierMaxStates})
		if err != nil {
			return fmt.Errorf("%w: rule %d: %v", ErrBadConfig, i, err)
		}
		totalStates += d.States()
		if totalStates > RegexClassifierMaxStates {
			return fmt.Errorf("%w: rule set needs %d DFA states, state memory holds %d",
				ErrBadConfig, totalStates, RegexClassifierMaxStates)
		}
		rules = append(rules, d)
	}
	m.rules = rules
	return nil
}

// ProcessBatch classifies every record into dst.
func (m *RegexClassifier) ProcessBatch(dst, in []byte) ([]byte, error) {
	if m.rules == nil {
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
		bitmap := uint16(0)
		first := uint16(0xffff)
		for i, d := range m.rules {
			if d.Match(rec.Payload) {
				bitmap |= 1 << uint(i)
				if first == 0xffff {
					first = uint16(i)
				}
			}
		}
		var aerr error
		dst, aerr = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, len(rec.Payload)+RegexTrailer)
		if aerr != nil {
			return nil, aerr
		}
		dst = append(dst, rec.Payload...)
		dst = binary.BigEndian.AppendUint16(dst, bitmap)
		dst = binary.BigEndian.AppendUint16(dst, first)
	}
	return dst, nil
}

// DecodeRegexTrailer splits a regex-classifier response.
func DecodeRegexTrailer(resp []byte) (payload []byte, bitmap uint16, first uint16, err error) {
	if len(resp) < RegexTrailer {
		return nil, 0, 0, fmt.Errorf("%w: %d-byte regex response", ErrBadRecord, len(resp))
	}
	payload = resp[:len(resp)-RegexTrailer]
	bitmap = binary.BigEndian.Uint16(resp[len(resp)-4 : len(resp)-2])
	first = binary.BigEndian.Uint16(resp[len(resp)-2:])
	return payload, bitmap, first, nil
}

// --- data-compression -------------------------------------------------------

// DataCompression DEFLATE-compresses (or, configured for the reverse
// direction, decompresses) each record payload — the "flow compression"
// NF family the paper lists among deep-packet-processing workloads
// (§II-B).
type DataCompression struct {
	level      int
	decompress bool
	// scratch stages one transformed payload (its length must be known
	// before the record header is written), reused across records.
	scratch bytes.Buffer
}

var _ fpga.Module = (*DataCompression)(nil)

// Configure takes [direction:1][level:1] where direction 0 compresses and
// 1 decompresses; level is 1..9 (ignored for decompression).
func (m *DataCompression) Configure(params []byte) error {
	if len(params) != 2 {
		return fmt.Errorf("%w: want [direction, level], got %d bytes", ErrBadConfig, len(params))
	}
	switch params[0] {
	case 0:
		m.decompress = false
	case 1:
		m.decompress = true
	default:
		return fmt.Errorf("%w: direction %d", ErrBadConfig, params[0])
	}
	if !m.decompress && (params[1] < 1 || params[1] > 9) {
		return fmt.Errorf("%w: level %d", ErrBadConfig, params[1])
	}
	m.level = int(params[1])
	return nil
}

// ProcessBatch transforms every record into dst, staging each payload in
// the module's reusable scratch buffer to learn its compressed length
// before the record header is written.
func (m *DataCompression) ProcessBatch(dst, in []byte) ([]byte, error) {
	if m.level == 0 && !m.decompress {
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
		m.scratch.Reset()
		if m.decompress {
			r := flate.NewReader(bytes.NewReader(rec.Payload))
			if _, derr := io.Copy(&m.scratch, io.LimitReader(r, 64*1024)); derr != nil {
				return nil, fmt.Errorf("%w: inflate: %v", ErrBadRecord, derr)
			}
		} else {
			w, werr := flate.NewWriter(&m.scratch, m.level)
			if werr != nil {
				return nil, werr
			}
			if _, werr := w.Write(rec.Payload); werr != nil {
				return nil, werr
			}
			if werr := w.Close(); werr != nil {
				return nil, werr
			}
		}
		var aerr error
		dst, aerr = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, m.scratch.Len())
		if aerr != nil {
			return nil, aerr
		}
		dst = append(dst, m.scratch.Bytes()...)
	}
	return dst, nil
}
