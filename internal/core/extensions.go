package core

// Extensions implementing the paper's future-work directions
// (Section V): (1) "more sophisticated techniques for implementing the
// versioning where the already executed part of the contract will not
// be able to change" — realised as history commitments: at modification
// time the manager seals a keccak commitment over the predecessor's
// executed payments into the shared data contract, so any later tamper
// with the claimed history is detectable; and (2) "introducing trust to
// the system" — realised as signed consent: the tenant produces an
// ECDSA signature over the modification (old address, new address) that
// anyone can verify against the tenant address recorded on chain.

import (
	"errors"
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/secp256k1"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// HistoryCommitmentKey is the DataStorage key holding the sealed
// payment-history commitment of a version.
const HistoryCommitmentKey = "__history_commitment"

// Errors of the extension layer.
var (
	ErrHistoryTampered = errors.New("core: executed history does not match its sealed commitment")
	ErrNoCommitment    = errors.New("core: version has no sealed history commitment")
	ErrBadConsent      = errors.New("core: consent signature does not verify against the tenant")
)

// historyDigest hashes the executed payment records of one version into
// a single commitment: keccak(addr || month_i || amount_i ...).
func historyDigest(addr ethtypes.Address, records []PaymentRecord) ethtypes.Hash {
	buf := make([]byte, 0, 20+len(records)*64)
	buf = append(buf, addr[:]...)
	for _, rec := range records {
		month := uint256.NewUint64(rec.Month).Bytes32()
		buf = append(buf, month[:]...)
		amt := rec.Amount.Bytes32()
		buf = append(buf, amt[:]...)
	}
	return ethtypes.Keccak256(buf)
}

// readHistory reads the executed payments of exactly one version.
func (s *RentalService) readHistory(addr ethtypes.Address) ([]PaymentRecord, error) {
	records, err := s.M.payments(addr)
	if errors.Is(err, ErrNoField) {
		return nil, fmt.Errorf("core: version %s has no payment history: %w", addr, err)
	}
	return records, err
}

// SealHistory computes the commitment over a version's executed
// payments and stores it in the data contract under the version's
// namespace. Called by the manager when the version is superseded, it
// freezes the executed part of the contract.
func (s *RentalService) SealHistory(from, addr ethtypes.Address) (ethtypes.Hash, error) {
	records, err := s.readHistory(addr)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	digest := historyDigest(addr, records)
	if _, err := s.M.SetValue(from, addr, HistoryCommitmentKey, digest.Hex()); err != nil {
		return ethtypes.Hash{}, err
	}
	return digest, nil
}

// VerifyHistory re-reads the version's executed payments and checks
// them against the commitment sealed in the version's own namespace; a
// successor never inherits its predecessor's.
func (s *RentalService) VerifyHistory(addr ethtypes.Address) error {
	sealed, err := s.M.ownValue(addr, HistoryCommitmentKey)
	if err != nil {
		return err
	}
	if sealed == "" {
		return ErrNoCommitment
	}
	records, err := s.readHistory(addr)
	if err != nil {
		return err
	}
	if historyDigest(addr, records).Hex() != sealed {
		return ErrHistoryTampered
	}
	return nil
}

// consentDigest is the message a tenant signs to approve a
// modification: keccak("legalchain-consent" || old || new).
func consentDigest(oldAddr, newAddr ethtypes.Address) ethtypes.Hash {
	return ethtypes.Keccak256([]byte("legalchain-consent"), oldAddr[:], newAddr[:])
}

// SignConsent produces the tenant's off-chain approval of a
// modification, signed with their wallet key.
func SignConsent(ks *wallet.Keystore, tenant, oldAddr, newAddr ethtypes.Address) ([]byte, error) {
	digest := consentDigest(oldAddr, newAddr)
	sig, err := ks.SignDigest(tenant, digest[:])
	if err != nil {
		return nil, err
	}
	return sig.Serialize(), nil
}

// VerifyConsent checks a consent signature against the tenant address
// the OLD version records on chain — so the approval is bound to the
// party the immutable contract itself names.
func (s *RentalService) VerifyConsent(oldAddr, newAddr ethtypes.Address, consent []byte) error {
	tenant, err := s.M.FieldAddress(oldAddr, "tenant")
	if err != nil {
		return err
	}
	if tenant.IsZero() {
		return fmt.Errorf("core: old version has no tenant to consent")
	}
	sig, err := secp256k1.ParseSignature(consent)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConsent, err)
	}
	digest := consentDigest(oldAddr, newAddr)
	pub, err := secp256k1.Recover(digest[:], sig)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConsent, err)
	}
	if ethtypes.PubkeyToAddress(pub) != tenant {
		return ErrBadConsent
	}
	return nil
}

// ModifyWithConsent is Modify plus the trust extension: the
// predecessor's executed history is sealed, and the tenant's signed
// approval of the new version's address is verified once it is deployed
// and linked.
func (s *RentalService) ModifyWithConsent(landlord, prevAddr ethtypes.Address, terms ModifiedTerms, consentFor func(newAddr ethtypes.Address) ([]byte, error)) (*Deployment, error) {
	// Seal the executed part of the old contract first (future work #1).
	if _, err := s.SealHistory(landlord, prevAddr); err != nil {
		return nil, err
	}
	dep, err := s.Modify(landlord, prevAddr, terms)
	if err != nil {
		return nil, err
	}
	consent, err := consentFor(dep.Contract.Address)
	if err != nil {
		return nil, err
	}
	// Without consent the linked version stays what the chain holds, an
	// open modification that the tenant may still confirm or reject.
	if err := s.VerifyConsent(prevAddr, dep.Contract.Address, consent); err != nil {
		return nil, err
	}
	return dep, nil
}
