// Package attest implements SGX remote attestation as the EnGarde protocol
// uses it (paper §2): each device carries a dedicated quoting enclave
// holding a device-specific private key (standing in for the Intel EPID
// key). The quoting enclave obtains an EREPORT measurement of a target
// enclave, verifies it locally against the device's report key, and signs
// it. A remote client verifies the signature chain and checks that the
// measurement matches the EnGarde loader build it expects, and that the
// enclave's ephemeral public key is bound into the quote's report data.
package attest

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"engarde/internal/sgx"
)

// Attestation errors.
var (
	// ErrBadSignature is returned when a quote's signature does not verify
	// under the device's attestation key.
	ErrBadSignature = errors.New("attest: quote signature invalid")
	// ErrWrongMeasurement is returned when the quoted MRENCLAVE differs
	// from the measurement the verifier expects.
	ErrWrongMeasurement = errors.New("attest: enclave measurement mismatch")
	// ErrWrongReportData is returned when the quote's report data does not
	// bind the expected value (e.g. the enclave's ephemeral public key).
	ErrWrongReportData = errors.New("attest: report data mismatch")
)

// Quote is a signed attestation statement.
type Quote struct {
	Report    sgx.Report
	Signature []byte
}

// signedPayload serializes the report fields covered by the quote
// signature.
func signedPayload(r sgx.Report) []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, r.MREnclave[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.EnclaveID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Version))
	buf = append(buf, r.ReportData[:]...)
	return buf
}

// QuotingEnclave is the device's quoting enclave. Only it holds the
// device's attestation (EPID-like) private key.
type QuotingEnclave struct {
	dev  *sgx.Device
	key  *rsa.PrivateKey
	size int
}

// NewQuotingEnclave provisions a quoting enclave for the device, generating
// its attestation key pair.
func NewQuotingEnclave(dev *sgx.Device) (*QuotingEnclave, error) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("attest: generating attestation key: %w", err)
	}
	return &QuotingEnclave{dev: dev, key: key}, nil
}

// AttestationPublicKey returns the public half of the device attestation
// key — what Intel's attestation service would publish for this platform.
func (qe *QuotingEnclave) AttestationPublicKey() *rsa.PublicKey {
	return &qe.key.PublicKey
}

// Quote produces a signed quote for the target enclave carrying the given
// report data. It performs the local-attestation step first: the EREPORT
// MAC must verify on this device.
func (qe *QuotingEnclave) Quote(e *sgx.Enclave, reportData [sgx.ReportDataSize]byte) (Quote, error) {
	rep, err := qe.dev.EReport(e, reportData)
	if err != nil {
		return Quote{}, fmt.Errorf("attest: EREPORT: %w", err)
	}
	if err := qe.dev.VerifyReport(rep); err != nil {
		return Quote{}, fmt.Errorf("attest: local verification: %w", err)
	}
	digest := sha256.Sum256(signedPayload(rep))
	sig, err := rsa.SignPKCS1v15(rand.Reader, qe.key, crypto.SHA256, digest[:])
	if err != nil {
		return Quote{}, fmt.Errorf("attest: signing quote: %w", err)
	}
	return Quote{Report: rep, Signature: sig}, nil
}

// VerifyQuote is the remote-client side: it checks the quote's signature
// under the platform's attestation public key, that the measurement equals
// the expected MRENCLAVE (the EnGarde loader both parties inspected), and
// that the report data equals bindData (the digest of the enclave's
// ephemeral channel public key, preventing man-in-the-middle provisioning).
func VerifyQuote(q Quote, platformKey *rsa.PublicKey, expected sgx.Measurement, bindData [sgx.ReportDataSize]byte) error {
	digest := sha256.Sum256(signedPayload(q.Report))
	if err := rsa.VerifyPKCS1v15(platformKey, crypto.SHA256, digest[:], q.Signature); err != nil {
		return ErrBadSignature
	}
	if q.Report.MREnclave != expected {
		return fmt.Errorf("%w: got %x want %x", ErrWrongMeasurement,
			q.Report.MREnclave[:8], expected[:8])
	}
	if q.Report.ReportData != bindData {
		return ErrWrongReportData
	}
	return nil
}

// BindPublicKey hashes an exported public key into a report-data block,
// implementing the "ephemeral public key included in the attestation
// quote" binding of §2.
func BindPublicKey(pubDER []byte) [sgx.ReportDataSize]byte {
	var out [sgx.ReportDataSize]byte
	sum := sha256.Sum256(pubDER)
	copy(out[:], sum[:])
	return out
}
