// Package nf implements the network functions used in the paper's
// evaluation, each in two variants: CPU-only (pure software, DPDK pipeline
// model) and DHL (computation-intensive processing offloaded to an FPGA
// hardware function). It also provides the shallow-processing baselines of
// Table I (L2fwd, L3fwd-lpm).
package nf

import (
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/lpm"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

// Errors returned by the SADB.
var (
	ErrNoSA    = errors.New("nf: no matching security association")
	ErrBadSA   = errors.New("nf: invalid security association")
	ErrDupeSPI = errors.New("nf: duplicate SPI")
)

// SA is one IPsec security association: "the bundle of algorithms and
// parameters (such as keys) that is being used to encrypt and authenticate
// a particular flow in one direction" (paper §V-B1, footnote 5).
type SA struct {
	SPI     uint32
	Key     []byte // AES-256 key
	AuthKey []byte // HMAC-SHA1 key
	Salt    uint32
}

func (sa SA) validate() error {
	if len(sa.Key) != swcrypto.KeySize || len(sa.AuthKey) != swcrypto.AuthKeySize {
		return fmt.Errorf("%w: SPI %d key %d/auth %d bytes", ErrBadSA, sa.SPI, len(sa.Key), len(sa.AuthKey))
	}
	return nil
}

// SADB maps traffic selectors (destination prefixes) to SAs, the "IPsec SA
// Matching" stage of Figure 5(a). Selector resolution reuses the DIR-24-8
// LPM table, whose next hop is the SA's index in sas.
type SADB struct {
	table *lpm.Table
	sas   []SA
}

// NewSADB creates an empty database.
func NewSADB() *SADB {
	return &SADB{table: lpm.New(64)}
}

// AddSA installs sa for traffic whose destination matches prefix/depth.
func (db *SADB) AddSA(prefix uint32, depth uint8, sa SA) error {
	if err := sa.validate(); err != nil {
		return err
	}
	// A control-path scan: an SADB holds at most 0x3fff SAs.
	for _, have := range db.sas {
		if have.SPI == sa.SPI {
			return fmt.Errorf("%w: %d", ErrDupeSPI, sa.SPI)
		}
	}
	idx := len(db.sas)
	if idx > 0x3ffe {
		return fmt.Errorf("nf: SADB full (%d SAs)", idx)
	}
	if err := db.table.Add(prefix, depth, uint16(idx)); err != nil {
		return fmt.Errorf("nf: add selector: %w", err)
	}
	db.sas = append(db.sas, SA{
		SPI:     sa.SPI,
		Key:     append([]byte(nil), sa.Key...),
		AuthKey: append([]byte(nil), sa.AuthKey...),
		Salt:    sa.Salt,
	})
	return nil
}

// Match resolves the SA for a destination address.
func (db *SADB) Match(dst eth.IPv4) (*SA, error) {
	idx, err := db.table.Lookup(dst.Uint32())
	if err != nil {
		return nil, ErrNoSA
	}
	return &db.sas[idx], nil
}

// Len reports the number of installed SAs.
func (db *SADB) Len() int { return len(db.sas) }

// DefaultSA builds a deterministic test SA covering 0.0.0.0/1 and
// 128.0.0.0/1 (i.e. all traffic), used by the evaluation harness.
func DefaultSA() SA {
	key := make([]byte, swcrypto.KeySize)
	auth := make([]byte, swcrypto.AuthKeySize)
	for i := range key {
		key[i] = byte(0xA5 ^ i)
	}
	for i := range auth {
		auth[i] = byte(0x3C + i)
	}
	return SA{SPI: 0x1001, Key: key, AuthKey: auth, Salt: 0xD00DFEED}
}

// AddDefaultSA installs DefaultSA for all destinations.
func (db *SADB) AddDefaultSA() error {
	sa := DefaultSA()
	if err := db.AddSA(0, 1, sa); err != nil {
		return err
	}
	sa2 := sa
	sa2.SPI = sa.SPI + 1
	return db.AddSA(0x80000000, 1, sa2)
}
