// Remote attestation: the full EnGarde provisioning protocol over a real
// TCP connection, including the checks that make it mutually trusted:
//
//   - the client verifies the quote's signature chain (platform key),
//     the enclave measurement (genuine EnGarde bootstrap), and the binding
//     of the enclave's ephemeral X25519 key into the quote;
//
//   - a simulated man-in-the-middle that substitutes its own key is
//     detected before any content leaves the client.
//
//     go run ./examples/remote-attestation
package main

import (
	"fmt"
	"log"
	"net"

	"engarde"
	"engarde/internal/attest"
	"engarde/internal/secchan"
	"engarde/internal/toolchain"
)

func main() {
	provider, err := engarde.NewProvider(engarde.ProviderConfig{})
	if err != nil {
		log.Fatal(err)
	}
	cfg := engarde.EnclaveConfig{HeapPages: 2500, ClientPages: 512,
		Policies: engarde.NewPolicySet()}
	enclave, err := provider.CreateEnclave(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Both parties can compute the expected measurement from the EnGarde
	// code they inspected.
	expected, err := engarde.ExpectedMeasurement(engarde.SGXv2,
		engarde.EnclaveConfig{HeapPages: 2500, ClientPages: 512})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expected MRENCLAVE: %x\n", expected[:])

	bin, err := toolchain.Build(toolchain.Config{
		Name: "attested", Seed: 5, NumFuncs: 6, AvgFuncInsts: 50,
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Honest run over TCP -------------------------------------------
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := enclave.ServeProvision(conn); err != nil {
			log.Println("server:", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	client := &engarde.Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
	verdict, err := client.Provision(conn, bin.Image)
	conn.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("honest provider: compliant=%v\n", verdict.Compliant)

	// --- Man-in-the-middle run -----------------------------------------
	// The MITM forwards the genuine quote but substitutes its own key,
	// hoping the client agrees on the session key with it. The quote binds
	// the genuine enclave key, so verification fails.
	mitmDetected := demonstrateMITM(provider, expected)
	fmt.Printf("man-in-the-middle substituting the channel key: detected=%v\n", mitmDetected)
	if !mitmDetected {
		log.Fatal("MITM was NOT detected — protocol broken")
	}
}

func demonstrateMITM(provider *engarde.Provider, expected engarde.Measurement) bool {
	enclave, err := provider.CreateEnclave(engarde.EnclaveConfig{HeapPages: 2500, ClientPages: 512})
	if err != nil {
		log.Fatal(err)
	}
	quote, err := enclave.Quote()
	if err != nil {
		log.Fatal(err)
	}
	// The attacker generates its own key pair and presents it with the
	// genuine quote.
	mitmKey, err := secchan.GenerateEnclaveKey(nil)
	if err != nil {
		log.Fatal(err)
	}
	mitmPub, err := mitmKey.PublicDER()
	if err != nil {
		log.Fatal(err)
	}
	err = attest.VerifyQuote(quote, provider.AttestationPublicKey(), expected, attest.BindPublicKey(mitmPub))
	return err != nil
}
