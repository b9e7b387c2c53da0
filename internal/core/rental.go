package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/upgrade"
	"legalchain/internal/web3"
)

// RentalService drives the rental-agreement lifecycle of Fig. 4 on top
// of the generic manager: upload/deploy by the landlord, confirmation
// with deposit by the tenant, monthly rent, unilateral modification with
// tenant confirm-or-reject, and termination with deposit settlement.
type RentalService struct {
	M *Manager
}

// NewRentalService wraps a manager.
func NewRentalService(m *Manager) *RentalService { return &RentalService{M: m} }

// RentalTerms are the business parameters of the agreement.
type RentalTerms struct {
	Rent     uint256.Int
	Deposit  uint256.Int
	Months   uint64
	House    string
	LegalDoc []byte // the human-readable agreement (PDF bytes)
}

// DeployRental deploys version 1 of a rental agreement for the landlord.
func (s *RentalService) DeployRental(landlord ethtypes.Address, terms RentalTerms) (*Deployment, error) {
	art, err := contracts.Artifact("BaseRental")
	if err != nil {
		return nil, err
	}
	return s.M.DeployVersion(landlord, art, terms.LegalDoc,
		terms.Rent, terms.Deposit, terms.Months, terms.House)
}

// Confirm lets the tenant accept the agreement, paying the deposit the
// contract demands (read from the chain, not from user input).
func (s *RentalService) Confirm(tenant, contractAddr ethtypes.Address) error {
	deposit, err := s.M.FieldUint(contractAddr, "deposit")
	if err != nil {
		return fmt.Errorf("core: reading deposit: %w", err)
	}
	bound, err := s.M.BindVersion(contractAddr)
	if err != nil {
		return err
	}
	_, err = bound.Transact(web3.TxOpts{From: tenant, Value: deposit}, "confirmAgreement")
	return err
}

// RentDue computes the amount payRent expects: the rent, minus the
// discount clause when the version has one.
func (s *RentalService) RentDue(contractAddr ethtypes.Address) (uint256.Int, error) {
	rent, err := s.M.FieldUint(contractAddr, "rent")
	if err != nil {
		return uint256.Zero, err
	}
	discount, err := s.M.FieldUint(contractAddr, "discount")
	switch {
	case errors.Is(err, ErrNoField):
		return rent, nil
	case err != nil:
		return uint256.Zero, err
	}
	return rent.Sub(discount), nil
}

// PayRent pays one month of rent from the tenant.
func (s *RentalService) PayRent(tenant, contractAddr ethtypes.Address) (*ethtypes.Receipt, error) {
	return s.PayRentCtx(context.Background(), tenant, contractAddr)
}

// PayRentCtx is PayRent with span propagation. When the version has a
// payment notary configured on chain (paymentProxy non-zero), the rent
// is routed through it so the same transaction records evidence in the
// DataStorage ledger; versions without a notary are paid directly.
func (s *RentalService) PayRentCtx(ctx context.Context, tenant, contractAddr ethtypes.Address) (*ethtypes.Receipt, error) {
	due, err := s.RentDue(contractAddr)
	if err != nil {
		return nil, err
	}
	bound, err := s.M.BindVersion(contractAddr)
	if err != nil {
		return nil, err
	}
	if proxy, err := s.M.FieldAddress(contractAddr, "paymentProxy"); err == nil && !proxy.IsZero() {
		notary := s.M.Client.Bind(proxy, contracts.NotaryABI())
		return notary.TransactCtx(ctx, web3.TxOpts{From: tenant, Value: due}, "payAndRecord", contractAddr)
	}
	return bound.TransactCtx(ctx, web3.TxOpts{From: tenant, Value: due}, "payRent")
}

// PayMaintenance pays the maintenance fee clause of upgraded versions.
func (s *RentalService) PayMaintenance(tenant, contractAddr ethtypes.Address) (*ethtypes.Receipt, error) {
	bound, err := s.M.BindVersion(contractAddr)
	if err != nil {
		return nil, err
	}
	if _, ok := bound.ABI.Methods["payMaintenanceFee"]; !ok {
		return nil, fmt.Errorf("core: version %s has no maintenance clause", contractAddr)
	}
	fee, err := s.M.FieldUint(contractAddr, "maintenanceFee")
	if err != nil {
		return nil, err
	}
	return bound.Transact(web3.TxOpts{From: tenant, Value: fee}, "payMaintenanceFee")
}

// Terminate ends the agreement (either party; the contract settles the
// deposit and any early-exit penalty).
func (s *RentalService) Terminate(party, contractAddr ethtypes.Address) error {
	bound, err := s.M.BindVersion(contractAddr)
	if err != nil {
		return err
	}
	_, err = bound.Transact(web3.TxOpts{From: party}, "terminateContract")
	return err
}

// ModifiedTerms are the parameters of an upgraded agreement (Fig. 6).
type ModifiedTerms struct {
	Rent           uint256.Int
	Deposit        uint256.Int
	Months         uint64
	House          string
	MaintenanceFee uint256.Int
	Discount       uint256.Int
	Fine           uint256.Int
	LegalDoc       []byte
}

// rentalSnapshotKeys are the fields preserved across rental versions via
// the DataStorage contract.
var rentalSnapshotKeys = []string{"rent", "deposit", "house", "monthCounter", "tenant", "landlord"}

// Modify deploys RentalAgreementV2 as the next version of prevAddr,
// linking it on chain and carrying the old data through DataStorage. The
// tenant still has to confirm (or reject) the new version.
func (s *RentalService) Modify(landlord, prevAddr ethtypes.Address, terms ModifiedTerms) (*Deployment, error) {
	art, err := contracts.Artifact("RentalAgreementV2")
	if err != nil {
		return nil, err
	}
	return s.ModifyWithArtifact(landlord, prevAddr, art, terms)
}

// rentalProperties are the behavioural assertions every rental
// candidate must satisfy on a fork of the head before it may join the
// version chain: the deployed terms match what the landlord declared,
// and the candidate arrives unlinked (its next pointer is zero, so the
// manager — not the constructor — controls the evidence line).
func rentalProperties(terms ModifiedTerms) []upgrade.Property {
	zero := ethtypes.Address{}
	return []upgrade.Property{
		{Name: "rent-matches-terms", Method: "rent", Want: terms.Rent.String()},
		{Name: "deposit-matches-terms", Method: "deposit", Want: terms.Deposit.String()},
		{Name: "starts-unlinked", Method: "getNext", Want: zero.Hex()},
	}
}

// ModifyWithArtifact is Modify with a caller-supplied contract artifact
// (the "upload a new contract" path of Fig. 9). The artifact's
// constructor must accept the V2 argument list.
func (s *RentalService) ModifyWithArtifact(landlord, prevAddr ethtypes.Address, art *minisol.Artifact, terms ModifiedTerms) (*Deployment, error) {
	return s.M.ModifyContract(landlord, prevAddr, art, ModifyOptions{
		SnapshotKeys: rentalSnapshotKeys,
		Properties:   rentalProperties(terms),
		LegalDoc:     terms.LegalDoc,
	}, terms.Rent, terms.Deposit, terms.Months, terms.House,
		terms.MaintenanceFee, terms.Discount, terms.Fine)
}

// ConfirmModification lets the tenant accept the new version (paying its
// deposit). The old version is terminated by the tenant, recovering the
// old deposit per its clauses.
func (s *RentalService) ConfirmModification(tenant, newAddr ethtypes.Address) error {
	if err := s.endPredecessor(tenant, newAddr); err != nil && !errors.Is(err, errNotModification) {
		return err
	}
	return s.Confirm(tenant, newAddr)
}

// RejectModification implements the paper's rejection branch: "if the
// tenant rejects the contract the previous contract is terminated". The
// new version never starts, and reads rejected once its predecessor is
// terminated.
func (s *RentalService) RejectModification(tenant, newAddr ethtypes.Address) error {
	return s.endPredecessor(tenant, newAddr)
}

var errNotModification = errors.New("core: version is not a modification")

// endPredecessor is the step that accepting and rejecting a modification
// share: the tenant terminates newAddr's predecessor if it is Started,
// settling its deposit. A predecessor that never started has none.
func (s *RentalService) endPredecessor(tenant, newAddr ethtypes.Address) error {
	row, err := s.M.GetRow(newAddr)
	if err != nil {
		return err
	}
	if row.Prev == "" {
		return fmt.Errorf("%w: %s", errNotModification, newAddr)
	}
	prev := ethtypes.HexToAddress(row.Prev)
	st, err := s.M.FieldUint(prev, "state")
	if err != nil || st.Uint64() != enumStarted {
		return err
	}
	bound, err := s.M.BindVersion(prev)
	if err != nil {
		return err
	}
	if _, err := bound.Transact(web3.TxOpts{From: tenant}, "terminateContract"); err != nil {
		return fmt.Errorf("core: terminating superseded version: %w", err)
	}
	return nil
}

// PaymentRecord is one entry of the on-chain rent history.
type PaymentRecord struct {
	Version int
	Month   uint64
	Amount  uint256.Int
	// TxHash is the transaction that paid this month, joined from the
	// version's paidRent event log. Zero when the version emits no
	// usable event — the payment is still real, just not traceable.
	TxHash ethtypes.Hash
	// Block is the height of that transaction, from the same log; zero
	// when TxHash is.
	Block uint64
}

// RentHistory aggregates the paidrents arrays across every version of
// the chain containing addr — the cross-version transaction history the
// paper's dashboard shows. The history is read from storage, which has
// no sender: viewer names who asks and changes no answer.
func (s *RentalService) RentHistory(viewer, addr ethtypes.Address) ([]PaymentRecord, error) {
	line, err := s.M.WalkChain(addr)
	if err != nil {
		return nil, err
	}
	return s.RentHistoryOf(line)
}

// RentHistoryOf is RentHistory over a version line the caller has
// already walked, so a page that also shows the line walks it once.
// Each version's payments are storage reads; a version that is not
// rental-shaped (its layout declares no monthCounter and paidrents)
// adds none. Each payment carries the hash of the transaction that paid
// it, the handle debug_traceTransaction replays, and its block: the
// line's paidRent logs are read in one scan, and a log's month is read
// from its own word.
func (s *RentalService) RentHistoryOf(line []VersionInfo) ([]PaymentRecord, error) {
	type rental struct {
		addr  ethtypes.Address
		topic ethtypes.Hash // its paidRent topic; zero when none is read
		month int           // where its paidRent logs hold the month (monthWord)
		paid  []PaymentRecord
	}
	var rentals []rental
	q := chain.FilterQuery{Topics: [][]ethtypes.Hash{nil}}
	for _, node := range line {
		paid, err := s.M.payments(node.Address)
		if errors.Is(err, ErrNoField) {
			continue // not a rental-shaped version
		}
		if err != nil {
			return nil, err
		}
		parsed, err := s.M.ResolveABI(node.Address)
		if err != nil {
			return nil, err
		}
		r := rental{addr: node.Address, paid: paid}
		for i := range paid {
			paid[i].Version = node.Version
		}
		if ev, ok := parsed.Events["paidRent"]; ok && len(paid) > 0 {
			if r.month, ok = monthWord(ev); ok {
				r.topic = ev.Topic()
				q.Addresses = append(q.Addresses, r.addr)
				if !slices.Contains(q.Topics[0], r.topic) {
					q.Topics[0] = append(q.Topics[0], r.topic)
				}
			}
		}
		rentals = append(rentals, r)
	}
	var logs []*ethtypes.Log
	if len(q.Addresses) > 0 {
		logs, _ = s.M.Client.Backend().FilterLogs(q) // no logs, no hashes: the payments stand
	}
	for _, l := range logs {
		i := slices.IndexFunc(rentals, func(r rental) bool { return r.addr == l.Address })
		if i < 0 || len(l.Topics) == 0 || l.Topics[0] != rentals[i].topic {
			continue
		}
		if month, ok := readMonth(l, rentals[i].month); ok {
			for j := range rentals[i].paid {
				if p := &rentals[i].paid[j]; p.Month == month {
					p.TxHash, p.Block = l.TxHash, l.BlockNumber // the last log of a month names it
				}
			}
		}
	}
	var out []PaymentRecord
	for _, r := range rentals {
		out = append(out, r.paid...)
	}
	return out, nil
}

// monthWord finds where a paidRent log holds its month argument: the
// data word at byte offset n for n >= 0, the topic at index -n
// otherwise. It picks the argument abi.DecodeLog's Args["month"] would
// hold (the last unindexed one of that name, else the last indexed
// one), and ok is false unless that argument is an integer.
func monthWord(ev abi.Event) (n int, ok bool) {
	topic, offset, inData := 1, 0, false
	for _, in := range ev.Inputs {
		if in.Name == "month" && !(in.Indexed && inData) {
			n, inData = offset, !in.Indexed
			if in.Indexed {
				n = -topic
			}
			ok = in.Type.Kind == abi.KindUint || in.Type.Kind == abi.KindInt
		}
		if in.Indexed {
			topic++
		} else {
			offset += in.Type.HeadSize()
		}
	}
	return n, ok
}

// readMonth reads the month of a paidRent log where monthWord found it,
// as the low 64 bits of its word; ok is false when the log is too short
// to hold it.
func readMonth(l *ethtypes.Log, n int) (month uint64, ok bool) {
	if n < 0 && -n < len(l.Topics) {
		return binary.BigEndian.Uint64(l.Topics[-n][24:]), true
	}
	if n >= 0 && n+32 <= len(l.Data) {
		return binary.BigEndian.Uint64(l.Data[n+24 : n+32]), true
	}
	return 0, false
}
