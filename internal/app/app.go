// Package app is the presentation tier of the paper's architecture
// (Fig. 1): a server-rendered web application with the user-specific
// dashboard (Fig. 7), contract upload (Fig. 9), deployment (Fig. 10),
// confirm/pay-rent actions, and the terminate-or-modify flow (Fig. 11).
// It plays the Django role of Table I on top of the contract manager.
package app

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/watch"
	"legalchain/internal/web3"
)

// Errors surfaced by the user layer.
var (
	ErrBadCredentials = errors.New("app: invalid username or password")
	ErrUserExists     = errors.New("app: user already exists")
	ErrNoSession      = errors.New("app: not logged in")
)

// TableUsers is the docstore table of user rows (the paper's
// User(name, email, password, public key) table).
const TableUsers = "users"

// User is one registered person.
type User struct {
	Name         string `json:"name"`
	Email        string `json:"email"`
	PasswordHash string `json:"passwordHash"` // hex(sha256(salt || password))
	Salt         string `json:"salt"`
	Address      string `json:"address"` // funded chain account (public key role)
}

// Addr parses the user's chain address.
func (u *User) Addr() ethtypes.Address { return ethtypes.HexToAddress(u.Address) }

// App wires the manager to users and sessions.
type App struct {
	Manager *core.Manager
	Rental  *core.RentalService

	// Watch is the optional contract watchtower. When set, the API
	// serves per-contract timelines and alert feeds, and head streams
	// carry event:alert frames.
	Watch *watch.Tower

	// Faucet funds new users so they can transact on the devnet.
	Faucet ethtypes.Address

	// node is the manager's backend: the head every body names and the
	// hub the event streams follow.
	node headNode

	mu       sync.Mutex
	sessions map[string]*User // token -> the user Login read
}

// headNode is an in-process node's backend (web3.LocalBackend): it
// pins head views and pushes sealed heads.
type headNode interface {
	web3.HeadViewer
	web3.HeadSubscriber
}

// New builds the application layer over the manager's backend, which
// must be an in-process node: New panics unless it implements
// web3.HeadViewer and web3.HeadSubscriber.
func New(m *core.Manager) *App {
	node, ok := m.Client.Backend().(headNode)
	if !ok {
		panic(fmt.Sprintf("app: backend %T is not an in-process node (web3.HeadViewer and web3.HeadSubscriber)", m.Client.Backend()))
	}
	return &App{
		Manager:  m,
		Rental:   core.NewRentalService(m),
		node:     node,
		sessions: map[string]*User{},
	}
}

// hashPassword derives the stored hash.
func hashPassword(salt, password string) string {
	sum := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(sum[:])
}

func randomToken() string {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable for session security.
		panic(fmt.Sprintf("app: rand: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Register creates a user, generates a chain account for them, and (if a
// faucet is configured) funds it.
func (a *App) Register(name, email, password string) (*User, error) {
	name = strings.TrimSpace(strings.ToLower(name))
	if name == "" || password == "" {
		return nil, fmt.Errorf("app: name and password are required")
	}
	if a.Manager.Store.Has(TableUsers, name) {
		return nil, ErrUserExists
	}
	acc, err := a.Manager.Client.Keystore().NewAccount()
	if err != nil {
		return nil, err
	}
	salt := randomToken()
	u := &User{
		Name:         name,
		Email:        email,
		Salt:         salt,
		PasswordHash: hashPassword(salt, password),
		Address:      acc.Address.Hex(),
	}
	if err := a.Manager.Store.Put(TableUsers, name, u); err != nil {
		return nil, err
	}
	if !a.Faucet.IsZero() {
		// Fund the user with 100 ether from the faucet.
		opts := web3.TxOpts{From: a.Faucet, Value: ethtypes.Ether(100)}
		if _, err := a.Manager.Client.Transfer(opts, acc.Address); err != nil {
			return nil, fmt.Errorf("app: funding new user: %w", err)
		}
	}
	return u, nil
}

// Login verifies credentials and opens a session.
func (a *App) Login(name, password string) (token string, err error) {
	name = strings.TrimSpace(strings.ToLower(name))
	var u User
	if err := a.Manager.Store.Get(TableUsers, name, &u); err != nil {
		return "", ErrBadCredentials
	}
	if hashPassword(u.Salt, password) != u.PasswordHash {
		return "", ErrBadCredentials
	}
	token = randomToken()
	a.mu.Lock()
	a.sessions[token] = &u
	a.mu.Unlock()
	return token, nil
}

// Logout closes a session.
func (a *App) Logout(token string) {
	a.mu.Lock()
	delete(a.sessions, token)
	a.mu.Unlock()
}

// SessionUser resolves a session token to its user: a copy of the row
// Login read. A user row is written once (Register refuses a taken
// name), so the session keeps it rather than reading it again.
func (a *App) SessionUser(token string) (*User, error) {
	a.mu.Lock()
	u, ok := a.sessions[token]
	a.mu.Unlock()
	if !ok {
		return nil, ErrNoSession
	}
	copied := *u
	return &copied, nil
}

// DashboardRow is one contract entry on the user dashboard (Fig. 7),
// annotated with the action the user can take next.
type DashboardRow struct {
	Address string
	Name    string
	Version int
	State   string
	Role    string // "landlord" | "tenant" | "open"
	Action  string // suggested next action
	House   string
	RentWei string
}

// Dashboard builds the user's view: contracts they deployed, contracts
// they are the tenant of, and open agreements they could join.
func (a *App) Dashboard(u *User) ([]DashboardRow, error) {
	var out []DashboardRow
	for _, row := range a.Manager.Rows() {
		row, _ = a.Manager.Describe(row, nil) // an unreadable version shows no state
		dr := DashboardRow{
			Address: row.Address, Name: row.Name,
			Version: row.Version, State: row.State,
		}
		switch {
		case strings.EqualFold(row.Landlord, u.Address):
			dr.Role = "landlord"
		case strings.EqualFold(row.Tenant, u.Address):
			dr.Role = "tenant"
		default:
			dr.Role = "open"
		}
		dr.Action = suggestAction(row, dr.Role)
		// Enrich with the version's public fields where its layout
		// declares them.
		addr := ethtypes.HexToAddress(row.Address)
		if house, err := a.Manager.FieldString(addr, "house"); err == nil {
			dr.House = house
		}
		if rent, err := a.Manager.FieldUint(addr, "rent"); err == nil {
			dr.RentWei = rent.String()
		}
		out = append(out, dr)
	}
	return out, nil
}

// termsInput is rental terms as both surfaces receive them: ether
// amounts as decimal strings ("1.5"), the legal document as text.
type termsInput struct {
	RentEth        string `json:"rentEth"`
	DepositEth     string `json:"depositEth"`
	Months         uint64 `json:"months"`
	House          string `json:"house"`
	MaintenanceEth string `json:"maintenanceEth"`
	DiscountEth    string `json:"discountEth"`
	FineEth        string `json:"fineEth"`
	Document       string `json:"document"`
}

// parse converts the terms to wei amounts and the document's bytes
// (nil when none was given), refusing a malformed amount.
func (t termsInput) parse() (core.ModifiedTerms, error) {
	m := core.ModifiedTerms{Months: t.Months, House: t.House}
	if t.Document != "" {
		m.LegalDoc = []byte(t.Document)
	}
	for _, f := range []struct {
		dst *uint256.Int
		eth string
	}{
		{&m.Rent, t.RentEth}, {&m.Deposit, t.DepositEth},
		{&m.MaintenanceFee, t.MaintenanceEth}, {&m.Discount, t.DiscountEth}, {&m.Fine, t.FineEth},
	} {
		w, err := weiOf(f.eth)
		if err != nil {
			return core.ModifiedTerms{}, err
		}
		*f.dst = w
	}
	return m, nil
}

// deployAgreement deploys a rental agreement for u: the built-in
// BaseRental when artifact is empty or names it, otherwise the uploaded
// artifact of that name with the same constructor terms.
func (a *App) deployAgreement(u *User, artifact string, t termsInput) (*core.Deployment, error) {
	m, err := t.parse()
	if err != nil {
		return nil, err
	}
	terms := core.RentalTerms{Rent: m.Rent, Deposit: m.Deposit, Months: m.Months, House: m.House, LegalDoc: m.LegalDoc}
	if artifact == "" || strings.EqualFold(artifact, "BaseRental") {
		return a.Rental.DeployRental(u.Addr(), terms)
	}
	art, err := a.GetArtifact(artifact)
	if err != nil {
		return nil, err
	}
	return a.Manager.DeployVersion(u.Addr(), art, terms.LegalDoc,
		terms.Rent, terms.Deposit, terms.Months, terms.House)
}

// contractAction runs one lifecycle action of u on the contract at
// addr. Only "modify" reads terms, and it needs them. A payment returns
// its receipt, a modification the new version's deployment.
func (a *App) contractAction(ctx context.Context, u *User, addr ethtypes.Address, action string, terms *termsInput) (*ethtypes.Receipt, *core.Deployment, error) {
	switch action {
	case "confirm":
		return nil, nil, a.Rental.Confirm(u.Addr(), addr)
	case "pay":
		rcpt, err := a.Rental.PayRentCtx(ctx, u.Addr(), addr)
		return rcpt, nil, err
	case "maintenance":
		_, err := a.Rental.PayMaintenance(u.Addr(), addr)
		return nil, nil, err
	case "terminate":
		return nil, nil, a.Rental.Terminate(u.Addr(), addr)
	case "confirm-modification":
		return nil, nil, a.Rental.ConfirmModification(u.Addr(), addr)
	case "reject-modification":
		return nil, nil, a.Rental.RejectModification(u.Addr(), addr)
	case "modify":
		if terms == nil {
			return nil, nil, errors.New("app: modify requires terms")
		}
		m, err := terms.parse()
		if err != nil {
			return nil, nil, err
		}
		dep, err := a.Rental.Modify(u.Addr(), addr, m)
		return nil, dep, err
	case "":
		return nil, nil, errors.New("app: missing action")
	default:
		return nil, nil, fmt.Errorf("app: unknown action %q", action)
	}
}

// suggestAction mirrors the paper's dashboard buttons: the available
// action depends on the contract's state and the viewer's role.
func suggestAction(row core.ContractRow, role string) string {
	switch row.State {
	case core.StateActive:
		switch {
		case role == "open" && row.Tenant == "":
			return "CONFIRM AGREEMENT"
		case role == "tenant":
			return "PAY RENT"
		case role == "landlord" && row.Tenant != "":
			return "TERMINATE OR MODIFY"
		case role == "landlord":
			return "AWAITING TENANT"
		}
	case core.StateSuperseded:
		return "VIEW HISTORY"
	case core.StateTerminated:
		return "TERMINATED"
	case core.StateRejected:
		return "REJECTED"
	}
	return "VIEW"
}
