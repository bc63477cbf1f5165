// Quickstart: the Listing 1 -> Listing 2 transformation from the paper.
//
// A software NF that called aes_256_ctr() in a loop (Listing 1) is shifted
// to the DHL hardware function call flow (Listing 2): register, search the
// hardware function table, configure the accelerator, tag packets with
// (nf_id, acc_id), send them to the shared IBQ and poll the private OBQ.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := dhl.Open(dhl.SystemConfig{})
	if err != nil {
		return err
	}

	// --- Listing 2, control plane ------------------------------------
	nfID, err := sys.Register("quickstart-nf", 0) // DHL_register()
	if err != nil {
		return err
	}
	accID, err := sys.SearchByName(dhl.IPsecCrypto, 0) // DHL_search_by_name()
	if err != nil {
		return err
	}
	key := make([]byte, swcrypto.KeySize)
	authKey := make([]byte, swcrypto.AuthKeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	for i := range authKey {
		authKey[i] = byte(i * 13)
	}
	blob, err := hwfunc.EncodeIPsecCryptoConfig(key, authKey, 0xCAFEBABE)
	if err != nil {
		return err
	}
	if err := sys.AccConfigure(accID, blob); err != nil { // DHL_acc_configure()
		return err
	}
	sys.Settle() // partial reconfiguration completes (~29 ms of virtual time)
	fmt.Println("hardware function table after setup:")
	for _, row := range sys.Control().HFTable() {
		fmt.Println(" ", row)
	}

	// --- Listing 2, data plane ---------------------------------------
	const nPkts = 8
	plaintexts := make([][]byte, nPkts)
	pkts := make([]*dhl.Packet, nPkts)
	for i := range pkts {
		m, aerr := sys.Pool().Alloc()
		if aerr != nil {
			return aerr
		}
		msg := fmt.Sprintf("packet %d payload: the quick brown fox", i)
		plaintexts[i] = []byte(msg)
		// The ipsec-crypto request carries a 2-byte offset prefix; offset
		// 0 encrypts the whole record body.
		if aerr := m.AppendBytes([]byte{0, 0}); aerr != nil {
			return errors.Join(aerr, sys.Pool().Free(m))
		}
		if aerr := m.AppendBytes([]byte(msg)); aerr != nil {
			return errors.Join(aerr, sys.Pool().Free(m))
		}
		m.AccID = uint16(accID) // pkts[i].acc_id = acc_id
		pkts[i] = m
	}
	sent, err := sys.SendPackets(nfID, pkts) // DHL_send_packets()
	if err != nil {
		return err
	}
	fmt.Printf("\nsent %d packets to the shared IBQ\n", sent)

	// Advance virtual time while polling the private OBQ.
	sys.Sim().Run(sys.Sim().Now() + 200*eventsim.Microsecond)
	out := make([]*dhl.Packet, nPkts)
	n, err := sys.ReceivePackets(nfID, out) // DHL_receive_packets()
	if err != nil {
		return err
	}
	fmt.Printf("received %d post-processed packets from the private OBQ\n\n", n)

	// Verify the hardware function really encrypted the payloads.
	eng, err := swcrypto.NewEngine(swcrypto.Config{Key: key, AuthKey: authKey, Salt: 0xCAFEBABE})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		data := out[i].Data()
		// Response layout: [iv:8][ciphertext][tag:12].
		iv := uint64(0)
		for _, b := range data[:8] {
			iv = iv<<8 | uint64(b)
		}
		body := append([]byte(nil), data[8:len(data)-swcrypto.TagSize]...)
		var tag [swcrypto.TagSize]byte
		copy(tag[:], data[len(data)-swcrypto.TagSize:])
		if derr := eng.Open(body, iv, tag); derr != nil {
			return fmt.Errorf("packet %d failed authentication: %w", i, derr)
		}
		fmt.Printf("packet %d decrypts to: %q\n", i, string(body))
		if perr := sys.Pool().Free(out[i]); perr != nil {
			return perr
		}
	}
	fmt.Println("\nquickstart complete: software NF -> hardware function round trip verified")
	return nil
}
