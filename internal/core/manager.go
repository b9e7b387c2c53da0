// Package core implements the paper's contribution: the contract
// manager of the business tier. It orchestrates
//
//   - deployment of legal smart contracts to the blockchain tier,
//   - the versioning mechanism of Fig. 2 — every modification deploys a
//     new contract and links it into an on-chain doubly linked list whose
//     traversal is the tamper-evident "evidence line" of changes,
//   - the off-chain contract registry rows of the data tier: the row of
//     each version names the CIDs of its ABI, storage layout and legal
//     document in the content-addressed store (the paper's Contract table
//     with its abi column beside IPFS), so an address recovered from a
//     next/prev pointer suffices to rebuild a full binding. The row is the
//     one durable record of that mapping, so bindings survive a restart,
//   - data/logic separation through the DataStorage contract of Fig. 3,
//     migrating the predecessor's key/value state to each new version.
//     Its address, and the payment notary's, are recorded in one docstore
//     row when they are deployed, and a manager opened over the same
//     docstore binds them again.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"legalchain/internal/abi"
	"legalchain/internal/chain"
	"legalchain/internal/contracts"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/jsonwire"
	"legalchain/internal/minisol"
	"legalchain/internal/upgrade"
	"legalchain/internal/web3"
)

// Errors returned by the manager.
var (
	ErrNoABI          = errors.New("core: no ABI published for address")
	ErrNotVersioned   = errors.New("core: contract lacks version pointers")
	ErrChainCorrupted = errors.New("core: version chain pointers are inconsistent")
	// ErrSuperseded refuses to modify a version that already has a
	// successor: the evidence line grows at its tail only.
	ErrSuperseded = errors.New("core: version already has a successor")
)

// Lifecycle states of a version (the paper's active / inactive /
// terminated states, with "rejected" for a modification the tenant
// refused). They are derived from the chain (Describe, WalkStates), never
// stored.
const (
	StateActive     = "active"
	StateSuperseded = "inactive"
	StateTerminated = "terminated"
	StateRejected   = "rejected"
)

// Table names in the docstore.
const (
	TableContracts = "contracts"
	TableArtifacts = "artifacts"
)

// The system table holds one row, naming the shared contracts the
// manager deployed.
const (
	systemTable = "system"
	systemKey   = "contracts"
)

// systemRow is that row: the hex addresses of DataStorage and of the
// payment notary, empty until deployed.
type systemRow struct {
	DataStorage string `json:"dataStorage,omitempty"`
	Notary      string `json:"notary,omitempty"`
}

// ContractRow is the off-chain registry row for one deployed version —
// the paper's Contract(landlord, tenant, version, state, abi) table. It
// is written once, when the version is published. Tenant, State and Next
// are what the version contract holds: Describe fills them for display,
// and they are never stored.
type ContractRow struct {
	Address     string `json:"address"`
	Name        string `json:"name"`
	Landlord    string `json:"landlord"`
	Tenant      string `json:"tenant,omitempty"`
	Version     int    `json:"version"`
	State       string `json:"state,omitempty"`
	ABICID      string `json:"abiCid"`
	LayoutCID   string `json:"layoutCid,omitempty"`
	DocumentCID string `json:"documentCid,omitempty"`
	Prev        string `json:"prev,omitempty"`
	Next        string `json:"next,omitempty"`
}

// Manager is the contract manager.
type Manager struct {
	Client *web3.Client
	IPFS   *ipfs.Node
	Store  *docstore.Store

	mu          sync.Mutex
	dataStorage *web3.BoundContract
	dataOwner   ethtypes.Address // dataStorage's owner; zero until known
	notary      *web3.BoundContract
	parsed      map[ethtypes.Address]versionArtifacts
	artifacts   map[artifactKey]any
}

// versionArtifacts memoises what was read of one version: its registry
// row and its parsed artifacts. A row is written once and the blobs are
// content-addressed, so nothing here goes stale; the artifacts are
// shared read-only with every caller, the row is copied out.
type versionArtifacts struct {
	row    *ContractRow
	abi    *abi.ABI
	layout *minisol.Layout
}

// artifactKind says what a blob is parsed as.
type artifactKind uint8

const (
	kindABI artifactKind = iota
	kindLayout
)

// artifactKey names one parsed blob. The CID alone is not enough: a row
// may name one blob under two fields, and it parses as one kind only.
type artifactKey struct {
	kind artifactKind
	cid  ipfs.CID
}

// errUnparsable marks a fetched blob that does not parse as its kind.
var errUnparsable = errors.New("does not parse")

// NewManager wires the three tiers together and binds the shared
// contracts the docstore's system row names.
func NewManager(client *web3.Client, node *ipfs.Node, store *docstore.Store) *Manager {
	m := &Manager{
		Client:    client,
		IPFS:      node,
		Store:     store,
		parsed:    map[ethtypes.Address]versionArtifacts{},
		artifacts: map[artifactKey]any{},
	}
	// No row (docstore.ErrNotFound) means neither is deployed yet.
	var sys systemRow
	if store.Get(systemTable, systemKey, &sys) == nil {
		if sys.DataStorage != "" {
			m.dataStorage = client.Bind(ethtypes.HexToAddress(sys.DataStorage), contracts.MustArtifact("DataStorage").ABI)
		}
		if sys.Notary != "" {
			m.notary = client.Bind(ethtypes.HexToAddress(sys.Notary), contracts.NotaryABI())
		}
	}
	return m
}

// putSystemLocked records the shared contracts bound so far. A crash
// between a deployment and this write loses the contract: the next
// manager deploys another one.
func (m *Manager) putSystemLocked() error {
	var sys systemRow
	if m.dataStorage != nil {
		sys.DataStorage = m.dataStorage.Address.Hex()
	}
	if m.notary != nil {
		sys.Notary = m.notary.Address.Hex()
	}
	return m.Store.Put(systemTable, systemKey, sys)
}

// EnsureDataStorage deploys the shared DataStorage contract on first use
// (owner = from), records it in the system row and returns its binding.
// Writes to it go through dataWriter, which sends them from the owner.
func (m *Manager) EnsureDataStorage(from ethtypes.Address) (*web3.BoundContract, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dataStorage != nil {
		return m.dataStorage, nil
	}
	art, err := contracts.Artifact("DataStorage")
	if err != nil {
		return nil, err
	}
	bound, _, err := m.Client.Deploy(web3.TxOpts{From: from}, art.ABI, art.Bytecode)
	if err != nil {
		return nil, fmt.Errorf("core: deploying DataStorage: %w", err)
	}
	m.dataStorage, m.dataOwner = bound, from
	if err := m.putSystemLocked(); err != nil {
		return nil, err
	}
	return bound, nil
}

// dataWriter returns the DataStorage binding, deploying it from from on
// first use, and the options every write to it is sent with. DataStorage
// lets only its owner write, and the owner is the account that deployed
// it, which need not be from: on a node serving many landlords the
// first one to write deployed it. So every write is sent from the
// owner, read once per binding from its layout slot.
func (m *Manager) dataWriter(from ethtypes.Address) (*web3.BoundContract, web3.TxOpts, error) {
	ds, err := m.EnsureDataStorage(from)
	if err != nil {
		return nil, web3.TxOpts{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dataOwner.IsZero() {
		state := contracts.DataStorageState{Addr: ds.Address, Node: m.Client.Backend()}
		if m.dataOwner, err = state.Owner(); err != nil {
			return nil, web3.TxOpts{}, fmt.Errorf("core: reading DataStorage owner: %w", err)
		}
	}
	return ds, web3.TxOpts{From: m.dataOwner}, nil
}

// boundDataStorage returns the DataStorage binding, or nil while none
// is deployed. Reads go through it: only a write may deploy
// the contract, because its deployer becomes the owner, the one account
// allowed to write.
func (m *Manager) boundDataStorage() *web3.BoundContract {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dataStorage
}

// dataState reads the deployed DataStorage's storage, nil while none is
// deployed. Each read of the data tier takes a state of its own.
func (m *Manager) dataState() *contracts.DataStorageState {
	bound := m.boundDataStorage()
	if bound == nil {
		return nil
	}
	return &contracts.DataStorageState{Addr: bound.Address, Node: m.Client.Backend()}
}

// DataStorageAddress returns the shared data contract address (zero if
// not deployed yet).
func (m *Manager) DataStorageAddress() ethtypes.Address {
	if ds := m.boundDataStorage(); ds != nil {
		return ds.Address
	}
	return ethtypes.Address{}
}

// EnsureNotary deploys the payment notary on first use (bound to the
// shared DataStorage, which it deploys too if needed) and authorizes it
// on the ledger, so rent relayed through it leaves evidence in the data
// tier. from deploys the notary; DataStorage's owner authorizes it.
func (m *Manager) EnsureNotary(from ethtypes.Address) (*web3.BoundContract, error) {
	ds, owner, err := m.dataWriter(from)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.notary != nil {
		return m.notary, nil
	}
	bound, _, err := m.Client.Deploy(web3.TxOpts{From: from, GasLimit: 500_000},
		contracts.NotaryABI(), contracts.PackNotaryDeploy(ds.Address))
	if err != nil {
		return nil, fmt.Errorf("core: deploying payment notary: %w", err)
	}
	if _, err := ds.Transact(owner, "authorize", bound.Address); err != nil {
		return nil, fmt.Errorf("core: authorizing notary: %w", err)
	}
	m.notary = bound
	if err := m.putSystemLocked(); err != nil {
		return nil, err
	}
	return bound, nil
}

// NotaryAddress returns the payment notary address (zero if not
// deployed yet).
func (m *Manager) NotaryAddress() ethtypes.Address {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.notary == nil {
		return ethtypes.Address{}
	}
	return m.notary.Address
}

// wireNotary points a freshly deployed version at the payment notary
// when both sides support it: the version exposes setPaymentProxy and a
// notary has been deployed. Versions without the method (escrow, user
// uploads) are skipped silently.
func (m *Manager) wireNotary(from ethtypes.Address, bound *web3.BoundContract) (uint64, error) {
	if _, ok := bound.ABI.Methods["setPaymentProxy"]; !ok {
		return 0, nil
	}
	notary := m.NotaryAddress()
	if notary == (ethtypes.Address{}) {
		return 0, nil
	}
	rcpt, err := bound.Transact(web3.TxOpts{From: from}, "setPaymentProxy", notary)
	if err != nil {
		return 0, fmt.Errorf("core: wiring payment notary: %w", err)
	}
	return rcpt.GasUsed, nil
}

// publish pins a version's ABI, its storage layout (when the artifact
// has one) and its legal document (when given) in the content store,
// and writes the registry row that names their CIDs.
func (m *Manager) publish(row ContractRow, art *minisol.Artifact, legalDoc []byte) (ContractRow, error) {
	cid, err := m.IPFS.Blobs.Add(art.ABIJSON)
	if err != nil {
		return row, fmt.Errorf("core: publishing ABI: %w", err)
	}
	row.ABICID = string(cid)
	if art.Layout != nil {
		if cid, err = m.IPFS.Blobs.Add(art.Layout.JSON()); err != nil {
			return row, fmt.Errorf("core: publishing layout: %w", err)
		}
		row.LayoutCID = string(cid)
	}
	if len(legalDoc) > 0 {
		if cid, err = m.IPFS.Blobs.Add(legalDoc); err != nil {
			return row, fmt.Errorf("core: storing legal document: %w", err)
		}
		row.DocumentCID = string(cid)
	}
	stored := row.registered()
	if err := m.Store.Put(TableContracts, strings.ToLower(row.Address), stored); err != nil {
		return row, err
	}
	m.remember(ethtypes.HexToAddress(row.Address), func(a *versionArtifacts) { a.row = &stored })
	return row, nil
}

// memo returns what has been read of addr so far.
func (m *Manager) memo(addr ethtypes.Address) versionArtifacts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.parsed[addr]
}

// remember records one more thing read of addr.
func (m *Manager) remember(addr ethtypes.Address, set func(*versionArtifacts)) {
	m.mu.Lock()
	a := m.parsed[addr]
	set(&a)
	m.parsed[addr] = a
	m.mu.Unlock()
}

// parseBlob returns the blob cid parsed as kind by parse, fetching and
// parsing it only the first time the manager meets (kind, cid): versions
// that publish the same blob share one parse. Callers that miss at once
// both parse, and all of them keep the value stored first. A blob that
// does not parse is errUnparsable.
func parseBlob[T any](m *Manager, kind artifactKind, cid ipfs.CID, parse func([]byte) (T, error)) (T, error) {
	key := artifactKey{kind, cid}
	m.mu.Lock()
	v, ok := m.artifacts[key]
	m.mu.Unlock()
	if !ok {
		var zero T
		raw, err := m.IPFS.Blobs.Get(cid)
		if err != nil {
			return zero, err
		}
		parsed, err := parse(raw)
		if err != nil {
			return zero, fmt.Errorf("%w: %v", errUnparsable, err)
		}
		m.mu.Lock()
		if v, ok = m.artifacts[key]; !ok {
			v = parsed
			m.artifacts[key] = v
		}
		m.mu.Unlock()
	}
	return v.(T), nil
}

// ResolveABI fetches and parses the ABI of a deployed version given only
// its address — the IPFS lookup of Fig. 2, through the CID its registry
// row names.
func (m *Manager) ResolveABI(addr ethtypes.Address) (*abi.ABI, error) {
	if parsed := m.memo(addr).abi; parsed != nil {
		return parsed, nil
	}
	row, err := m.GetRow(addr)
	if err == nil && row.ABICID == "" {
		err = errors.New("its registry row names no ABI")
	}
	var parsed *abi.ABI
	if err == nil {
		parsed, err = parseBlob(m, kindABI, ipfs.CID(row.ABICID), abi.ParseJSON)
	}
	if errors.Is(err, errUnparsable) {
		return nil, fmt.Errorf("core: stored ABI for %s is invalid: %w", addr, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrNoABI, addr, err)
	}
	m.remember(addr, func(a *versionArtifacts) { a.abi = parsed })
	return parsed, nil
}

// ResolveLayout fetches a version's storage layout the same way. A row
// that names no layout (an artifact without one) resolves to (nil, nil),
// and the guard skips the layout check with a note. A named layout that
// is missing or does not parse is an error, so the guard fails closed.
func (m *Manager) ResolveLayout(addr ethtypes.Address) (*minisol.Layout, error) {
	if layout := m.memo(addr).layout; layout != nil {
		return layout, nil
	}
	row, err := m.GetRow(addr)
	if err != nil {
		return nil, fmt.Errorf("core: layout of %s: %w", addr, err)
	}
	if row.LayoutCID == "" {
		return nil, nil
	}
	layout, err := parseBlob(m, kindLayout, ipfs.CID(row.LayoutCID), minisol.ParseLayout)
	if errors.Is(err, errUnparsable) {
		return nil, fmt.Errorf("core: stored layout for %s is invalid: %w", addr, err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: layout of %s: %w", addr, err)
	}
	m.remember(addr, func(a *versionArtifacts) { a.layout = layout })
	return layout, nil
}

// BindVersion reconstructs a full contract binding from an address
// alone, via the published ABI.
func (m *Manager) BindVersion(addr ethtypes.Address) (*web3.BoundContract, error) {
	parsed, err := m.ResolveABI(addr)
	if err != nil {
		return nil, err
	}
	return m.Client.Bind(addr, parsed), nil
}

// Deployment describes one deployed legal-contract version.
type Deployment struct {
	Contract *web3.BoundContract
	Row      ContractRow
	GasUsed  uint64
}

// DeployVersion deploys a contract as version 1 of a new chain: the code
// goes to the blockchain tier, the ABI, layout and legal document (if
// any) to IPFS, and the registry row naming them to the contracts table.
func (m *Manager) DeployVersion(from ethtypes.Address, art *minisol.Artifact, legalDoc []byte, args ...interface{}) (*Deployment, error) {
	bound, rcpt, err := m.Client.Deploy(web3.TxOpts{From: from}, art.ABI, art.Bytecode, args...)
	if err != nil {
		return nil, fmt.Errorf("core: deploy %s: %w", art.Name, err)
	}
	gas := rcpt.GasUsed
	if wireGas, err := m.wireNotary(from, bound); err != nil {
		return nil, err
	} else {
		gas += wireGas
	}
	row, err := m.publish(ContractRow{
		Address:  bound.Address.Hex(),
		Name:     art.Name,
		Landlord: from.Hex(),
		Version:  1,
	}, art, legalDoc)
	if err != nil {
		return nil, err
	}
	return &Deployment{Contract: bound, Row: row, GasUsed: gas}, nil
}

// ModifyOptions tune ModifyContract.
type ModifyOptions struct {
	// SnapshotKeys, when non-empty, name public uint/enum, address or
	// string fields of the old version, read from its storage and
	// written into DataStorage before migration, so the new version can
	// import them (the paper's data/logic separation).
	SnapshotKeys []string
	// Properties are user-declared behavioural assertions the candidate
	// must satisfy when deployed on a fork of the live head, checked by
	// the upgrade guard before the versions are linked.
	Properties []upgrade.Property
	// LegalDoc is the updated legal document (PDF) for the new version.
	LegalDoc []byte
}

// VerifyUpgrade runs the guarded-upgrade checks for a candidate
// artifact against a deployed predecessor without touching the chain:
// ABI surface, storage layout (when the predecessor published one), and
// the declared properties executed on a fork of the live head. The
// returned report says whether ModifyContract would admit the
// candidate.
func (m *Manager) VerifyUpgrade(from, prevAddr ethtypes.Address, art *minisol.Artifact, props []upgrade.Property, args ...interface{}) (*upgrade.Report, error) {
	prevABI, err := m.ResolveABI(prevAddr)
	if err != nil {
		return nil, err
	}
	prevLayout, err := m.ResolveLayout(prevAddr)
	if err != nil {
		return nil, err
	}
	var view *chain.HeadView
	if hv, ok := m.Client.Backend().(web3.HeadViewer); ok {
		view = hv.HeadView()
	}
	spec := upgrade.Spec{PrevAddress: prevAddr, PrevABI: prevABI, PrevLayout: prevLayout, Properties: props}
	cand := upgrade.Candidate{Name: art.Name, ABI: art.ABI, Layout: art.Layout, Bytecode: art.Bytecode, CtorArgs: args}
	return upgrade.Verify(spec, cand, view, from), nil
}

// Evidence keys under which upgrade rejections are recorded in the
// predecessor's DataStorage namespace.
const (
	rejectionCountKey  = "upgrade.rejections"
	rejectionKeyPrefix = "upgrade.rejected."
)

// recordRejection appends the failed verification report to the
// predecessor's evidence line in DataStorage, so the refusal itself is
// part of the tamper-evident modification history.
func (m *Manager) recordRejection(from, prevAddr ethtypes.Address, report *upgrade.Report) error {
	n := 0
	if s, err := m.ownValue(prevAddr, rejectionCountKey); err == nil && s != "" {
		n, _ = strconv.Atoi(s)
	}
	raw, err := json.Marshal(report)
	if err != nil {
		return fmt.Errorf("core: encoding rejection report: %w", err)
	}
	if _, err := m.SetValue(from, prevAddr, rejectionKeyPrefix+strconv.Itoa(n), string(raw)); err != nil {
		return err
	}
	_, err = m.SetValue(from, prevAddr, rejectionCountKey, strconv.Itoa(n+1))
	return err
}

// Rejections returns the upgrade-rejection reports recorded in a
// version's own namespace, oldest first; a successor does not inherit
// them. A report that does not parse, or whose index lives only in an
// ancestor's namespace, is skipped.
func (m *Manager) Rejections(from, addr ethtypes.Address) ([]*upgrade.Report, error) {
	s, err := m.ownValue(addr, rejectionCountKey)
	if err != nil || s == "" {
		return nil, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return nil, fmt.Errorf("core: bad rejection count %q for %s", s, addr)
	}
	out := make([]*upgrade.Report, 0, n)
	for i := 0; i < n; i++ {
		raw, err := m.ownValue(addr, rejectionKeyPrefix+strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		var r upgrade.Report
		if json.Unmarshal([]byte(raw), &r) != nil {
			continue
		}
		out = append(out, &r)
	}
	return out, nil
}

// ModifyContract implements the modification flow of Figs. 2 and 11,
// guarded: the candidate is verified against the predecessor's spec
// (ABI surface, storage layout, declared properties on a fork of the
// head) BEFORE anything is deployed or linked. A failing candidate is
// recorded in the predecessor's evidence line and rejected with a
// structured *upgrade.RejectionError. An admitted candidate is
// deployed, linked into the doubly linked list on chain, data optionally
// snapshotted and always migrated in place (the new version adopts its
// predecessor's DataStorage namespace), and its registry row written (it
// names the published ABI, layout and document). The old version's row
// is not touched: that it is inactive now is read from its next pointer.
// Only the tail of a line may be modified: a predecessor whose next
// pointer is set is refused with ErrSuperseded before the guard runs or
// anything is sent, since linking it again would fork the line.
func (m *Manager) ModifyContract(from ethtypes.Address, prevAddr ethtypes.Address, art *minisol.Artifact, opts ModifyOptions, args ...interface{}) (*Deployment, error) {
	prev, err := m.BindVersion(prevAddr)
	if err != nil {
		return nil, err
	}
	if _, next, err := m.pointers(prevAddr); err != nil {
		return nil, err
	} else if !next.IsZero() {
		return nil, fmt.Errorf("%w: %s is followed by %s", ErrSuperseded, prevAddr, next)
	}
	prevRow, err := m.GetRow(prevAddr)
	if err != nil {
		return nil, err
	}

	// The upgrade guard: verify the candidate before any state changes.
	report, err := m.VerifyUpgrade(from, prevAddr, art, opts.Properties, args...)
	if err != nil {
		return nil, err
	}
	if !report.OK() {
		if rerr := m.recordRejection(from, prevAddr, report); rerr != nil {
			return nil, fmt.Errorf("core: recording upgrade rejection: %w", rerr)
		}
		return nil, &upgrade.RejectionError{Report: report}
	}

	// Optional: snapshot selected fields of the old version into the
	// shared data contract under the old address, in one transaction.
	var gas uint64
	if len(opts.SnapshotKeys) > 0 {
		if gas, err = m.SnapshotContract(from, prevAddr, opts.SnapshotKeys); err != nil {
			return nil, err
		}
	}

	// Deploy the new version.
	bound, rcpt, err := m.Client.Deploy(web3.TxOpts{From: from}, art.ABI, art.Bytecode, args...)
	if err != nil {
		return nil, fmt.Errorf("core: deploy new version: %w", err)
	}
	gas += rcpt.GasUsed

	// Link the versions on chain (Fig. 2): the contract manager sets the
	// next and previous pointers whenever a new version is deployed.
	if r, err := prev.Transact(web3.TxOpts{From: from}, "setNext", bound.Address); err != nil {
		return nil, fmt.Errorf("core: linking prev.next: %w", err)
	} else {
		gas += r.GasUsed
	}
	if r, err := bound.Transact(web3.TxOpts{From: from}, "setPrev", prevAddr); err != nil {
		return nil, fmt.Errorf("core: linking next.prev: %w", err)
	} else {
		gas += r.GasUsed
	}
	if wireGas, err := m.wireNotary(from, bound); err != nil {
		return nil, err
	} else {
		gas += wireGas
	}

	// Migrate data under the new address: one namespace-adoption
	// transaction.
	mgGas, err := m.AdoptNamespace(from, bound.Address, prevAddr)
	if err != nil {
		return nil, err
	}
	gas += mgGas

	row, err := m.publish(ContractRow{
		Address:  bound.Address.Hex(),
		Name:     art.Name,
		Landlord: from.Hex(),
		Version:  prevRow.Version + 1,
		Prev:     prevAddr.Hex(),
	}, art, opts.LegalDoc)
	if err != nil {
		return nil, err
	}
	return &Deployment{Contract: bound, Row: row, GasUsed: gas}, nil
}

// --- registry rows ----------------------------------------------------------

// registered returns the row as the registry holds it: without the
// derived fields, so that none is stored, and a stale one that an older
// build stored is never shown.
func (r ContractRow) registered() ContractRow {
	r.Tenant, r.State, r.Next = "", "", ""
	return r
}

// readRow decodes a registry row as json.Unmarshal decodes it into a
// ContractRow, through internal/jsonwire (FuzzReadRow holds the two
// together).
func readRow(raw []byte) (ContractRow, error) {
	var row ContractRow
	r := jsonwire.NewReader(raw)
	r.Object(func(key []byte) {
		switch {
		case jsonwire.Is(key, "address"):
			r.String(&row.Address)
		case jsonwire.Is(key, "name"):
			r.String(&row.Name)
		case jsonwire.Is(key, "landlord"):
			r.String(&row.Landlord)
		case jsonwire.Is(key, "tenant"):
			r.String(&row.Tenant)
		case jsonwire.Is(key, "version"):
			r.Int(&row.Version)
		case jsonwire.Is(key, "state"):
			r.String(&row.State)
		case jsonwire.Is(key, "abiCid"):
			r.String(&row.ABICID)
		case jsonwire.Is(key, "layoutCid"):
			r.String(&row.LayoutCID)
		case jsonwire.Is(key, "documentCid"):
			r.String(&row.DocumentCID)
		case jsonwire.Is(key, "prev"):
			r.String(&row.Prev)
		case jsonwire.Is(key, "next"):
			r.String(&row.Next)
		default:
			r.Skip()
		}
	})
	return row, r.Finish()
}

// GetRow returns the registry row of a version, without its derived
// fields. The docstore is read until a read succeeds; from then on the
// manager answers from its memo, since the row never changes. A miss is
// not remembered, so a row published later is found.
func (m *Manager) GetRow(addr ethtypes.Address) (ContractRow, error) {
	if row := m.memo(addr).row; row != nil {
		return *row, nil
	}
	raw, err := m.Store.GetRaw(TableContracts, strings.ToLower(addr.Hex()))
	var row ContractRow
	if err == nil {
		row, err = readRow(raw)
	}
	row = row.registered()
	if err == nil {
		m.remember(addr, func(a *versionArtifacts) { a.row = &row })
	}
	return row, err
}

// Rows lists all registry rows, without their derived fields.
func (m *Manager) Rows() []ContractRow {
	var out []ContractRow
	m.Store.Scan(TableContracts, func(key string, raw json.RawMessage) bool {
		if row, err := readRow(raw); err == nil {
			out = append(out, row.registered())
		}
		return true
	})
	return out
}

// LegalDocument fetches the stored legal document of a version from the
// content store.
func (m *Manager) LegalDocument(addr ethtypes.Address) ([]byte, error) {
	row, err := m.GetRow(addr)
	if err != nil {
		return nil, err
	}
	if row.DocumentCID == "" {
		return nil, fmt.Errorf("core: no document for %s", addr)
	}
	return m.IPFS.Blobs.Get(ipfs.CID(row.DocumentCID))
}
