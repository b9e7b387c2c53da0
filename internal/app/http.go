package app

import (
	"errors"
	"fmt"
	"html/template"
	"math/big"
	"net/http"
	"strconv"
	"strings"

	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/obs"
	"legalchain/internal/uint256"
)

// Handler builds the HTTP mux of the web application: one table of
// net/http patterns, the only place a request path is read. Every route
// is wrapped in obs.InstrumentHandler with its pattern as the metric
// label, so cardinality stays bounded no matter what paths clients hit.
// Methods are checked in the handlers, so that a v1 refusal answers the
// v1 envelope rather than the mux's plain-text 405.
func (a *App) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.InstrumentHandler(pattern, h))
	}
	handle("/{$}", a.handleIndex)
	handle("/register", a.handleRegister)
	handle("/login", a.handleLogin)
	handle("/logout", a.handleLogout)
	handle("/dashboard", a.withUser(a.handleDashboard))
	handle("/upload", a.withUser(a.handleUpload))
	handle("/deploy", a.withUser(a.handleDeploy))
	handle("/contract/{addr}", a.withAddr(a.handleContract))
	handle("/contract/{addr}/{action}", a.withAddr(a.handleContract))
	handle("/doc/{addr}", a.withAddr(a.handleDocument))
	a.apiV1Routes(handle)
	return mux
}

const sessionCookie = "legalchain_session"

// withUser resolves the session and injects the user. HTML routes
// redirect to the login page; /api/v1/ routes answer 401 with the v1
// error envelope.
func (a *App) withUser(fn func(http.ResponseWriter, *http.Request, *User)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		deny := func() {
			if isV1(r) {
				writeV1Error(w, r, http.StatusUnauthorized, v1Unauthorized, "not logged in")
				return
			}
			http.Redirect(w, r, "/login", http.StatusSeeOther)
		}
		c, err := r.Cookie(sessionCookie)
		if err != nil {
			deny()
			return
		}
		u, err := a.SessionUser(c.Value)
		if err != nil {
			deny()
			return
		}
		fn(w, r, u)
	}
}

// withAddr is withUser for the routes of one contract: it reads the
// route's {addr} through ethtypes.ParseAddress. A malformed address
// answers 400 with the v1 envelope under /api/v1/, 404 elsewhere.
func (a *App) withAddr(fn func(http.ResponseWriter, *http.Request, *User, ethtypes.Address)) http.HandlerFunc {
	return a.withUser(func(w http.ResponseWriter, r *http.Request, u *User) {
		addr, err := ethtypes.ParseAddress(r.PathValue("addr"))
		switch {
		case err == nil:
			fn(w, r, u, addr)
		case isV1(r):
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "bad contract address")
		default:
			http.NotFound(w, r)
		}
	})
}

// isV1 reports whether r is a request to the JSON API, whose answers
// all use the v1 envelope.
func isV1(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/api/v1/") }

func (a *App) handleIndex(w http.ResponseWriter, r *http.Request) {
	http.Redirect(w, r, "/dashboard", http.StatusSeeOther)
}

func (a *App) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		_, err := a.Register(r.FormValue("name"), r.FormValue("email"), r.FormValue("password"))
		if err != nil {
			a.renderError(w, http.StatusBadRequest, err)
			return
		}
		http.Redirect(w, r, "/login", http.StatusSeeOther)
		return
	}
	a.render(w, registerTmpl, nil)
}

func (a *App) handleLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		token, err := a.Login(r.FormValue("name"), r.FormValue("password"))
		if err != nil {
			a.renderError(w, http.StatusUnauthorized, err)
			return
		}
		http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: token, Path: "/", HttpOnly: true})
		http.Redirect(w, r, "/dashboard", http.StatusSeeOther)
		return
	}
	a.render(w, loginTmpl, nil)
}

func (a *App) handleLogout(w http.ResponseWriter, r *http.Request) {
	if c, err := r.Cookie(sessionCookie); err == nil {
		a.Logout(c.Value)
	}
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: "", Path: "/", MaxAge: -1})
	http.Redirect(w, r, "/login", http.StatusSeeOther)
}

func (a *App) handleDashboard(w http.ResponseWriter, r *http.Request, u *User) {
	rows, err := a.Dashboard(u)
	if err != nil {
		a.renderError(w, http.StatusInternalServerError, err)
		return
	}
	bal, _ := a.Manager.Client.Backend().GetBalance(u.Addr())
	a.render(w, dashboardTmpl, map[string]interface{}{
		"User":       u,
		"BalanceEth": ethtypes.FormatEther(bal),
		"Rows":       rows,
		"Artifacts":  a.Artifacts(),
	})
}

// handleUpload implements Fig. 9: upload an artifact as ABI + bytecode,
// or paste minisol source to compile server-side.
func (a *App) handleUpload(w http.ResponseWriter, r *http.Request, u *User) {
	if r.Method == http.MethodPost {
		var err error
		if src := r.FormValue("source"); strings.TrimSpace(src) != "" {
			_, err = a.CompileArtifact(u, src, r.FormValue("contract"))
		} else {
			_, err = a.UploadArtifact(u, r.FormValue("name"), r.FormValue("abi"), r.FormValue("bytecode"))
		}
		if err != nil {
			a.renderError(w, http.StatusBadRequest, err)
			return
		}
		http.Redirect(w, r, "/dashboard", http.StatusSeeOther)
		return
	}
	a.render(w, uploadTmpl, map[string]interface{}{"User": u})
}

// handleDeploy implements Fig. 10: deploy an uploaded artifact (or the
// built-in BaseRental) with rental terms.
func (a *App) handleDeploy(w http.ResponseWriter, r *http.Request, u *User) {
	if r.Method == http.MethodPost {
		terms, err := formTerms(r)
		if err == nil {
			_, err = a.deployAgreement(u, r.FormValue("artifact"), terms)
		}
		if err != nil {
			a.renderError(w, http.StatusBadRequest, err)
			return
		}
		http.Redirect(w, r, "/dashboard", http.StatusSeeOther)
		return
	}
	a.render(w, deployTmpl, map[string]interface{}{"User": u, "Artifacts": a.Artifacts()})
}

// handleContract serves /contract/{addr}[/{action}]: a POST runs the
// action (confirm / pay / maintenance / terminate / modify ...), any
// other method renders the detail page.
func (a *App) handleContract(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if r.Method == http.MethodPost {
		terms, err := formTerms(r)
		if err == nil {
			_, _, err = a.contractAction(r.Context(), u, addr, r.PathValue("action"), &terms)
		}
		if errors.Is(err, core.ErrSuperseded) {
			a.renderError(w, http.StatusConflict, err)
			return
		}
		if err != nil {
			a.renderError(w, http.StatusBadRequest, err)
			return
		}
		http.Redirect(w, r, "/contract/"+r.PathValue("addr"), http.StatusSeeOther)
		return
	}
	a.renderContract(w, u, addr)
}

// formTerms reads the rental terms from the deploy and modify forms.
func formTerms(r *http.Request) (termsInput, error) {
	months, err := uintOf(r.FormValue("months"))
	return termsInput{
		RentEth:        r.FormValue("rent"),
		DepositEth:     r.FormValue("deposit"),
		Months:         months,
		House:          r.FormValue("house"),
		MaintenanceEth: r.FormValue("maintenance"),
		DiscountEth:    r.FormValue("discount"),
		FineEth:        r.FormValue("fine"),
		Document:       r.FormValue("document"),
	}, err
}

// ContractView is the detail-page model.
type ContractView struct {
	User                 *User
	Row                  core.ContractRow
	StateNum             uint64
	House                string
	RentEth              string
	DueEth               string
	Months               uint64
	Paid                 []core.PaymentRecord
	Versions             []core.VersionInfo
	HasDoc               bool
	HasMaint             bool
	IsLandlord, IsTenant bool
}

func (a *App) renderContract(w http.ResponseWriter, u *User, addr ethtypes.Address) {
	row, err := a.Manager.GetRow(addr)
	if err != nil {
		a.renderError(w, http.StatusNotFound, err)
		return
	}
	versions, walkErr := a.Manager.WalkStates(addr)
	row, _ = a.Manager.Describe(row, versions)
	view := ContractView{User: u, Row: row,
		IsLandlord: strings.EqualFold(row.Landlord, u.Address),
		IsTenant:   strings.EqualFold(row.Tenant, u.Address),
		HasDoc:     row.DocumentCID != "",
	}
	if st, err := a.Manager.FieldUint(addr, "state"); err == nil {
		view.StateNum = st.Uint64()
	}
	if house, err := a.Manager.FieldString(addr, "house"); err == nil {
		view.House = house
	}
	if rent, err := a.Manager.FieldUint(addr, "rent"); err == nil {
		view.RentEth = ethtypes.FormatEther(rent)
	}
	if months, err := a.Manager.FieldUint(addr, "contractTime"); err == nil {
		view.Months = months.Uint64()
	}
	if parsed, err := a.Manager.ResolveABI(addr); err == nil {
		_, view.HasMaint = parsed.Methods["payMaintenanceFee"]
	}
	if due, err := a.Rental.RentDue(addr); err == nil {
		view.DueEth = ethtypes.FormatEther(due)
	}
	if walkErr == nil {
		view.Versions = versions
		if hist, err := a.Rental.RentHistoryOf(versions); err == nil {
			view.Paid = hist
		}
	}
	a.render(w, contractTmpl, view)
}

// handleDocument serves the stored legal document (Fig. 4's "contract
// linked to a pdf").
func (a *App) handleDocument(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	doc, err := a.Manager.LegalDocument(addr)
	if err != nil {
		a.renderError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/pdf")
	w.Write(doc)
}

// --- helpers ----------------------------------------------------------------

// weiOf parses a decimal ether amount ("1.5") into wei. Empty input
// is zero (the optional clauses); a sign, any other non-digit, more
// than 18 fraction digits or an amount of 2²⁵⁶ wei or more is an error.
func weiOf(s string) (uint256.Int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return uint256.Zero, nil
	}
	whole, frac, _ := strings.Cut(s, ".")
	digits := whole + frac
	if digits == "" || len(frac) > 18 || strings.Trim(digits, "0123456789") != "" {
		return uint256.Zero, fmt.Errorf("app: bad ether amount %q", s)
	}
	w, _ := new(big.Int).SetString(digits+strings.Repeat("0", 18-len(frac)), 10)
	if w.BitLen() > 256 {
		return uint256.Zero, fmt.Errorf("app: ether amount %q is 2^256 wei or more", s)
	}
	return uint256.FromBig(w), nil
}

// uintOf parses a whole number; empty input is zero.
func uintOf(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("app: bad whole number %q", s)
	}
	return n, nil
}

func (a *App) render(w http.ResponseWriter, t *template.Template, data interface{}) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := t.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (a *App) renderError(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, ErrNoSession) {
		code = http.StatusUnauthorized
	}
	w.WriteHeader(code)
	errTmpl.Execute(w, map[string]interface{}{"Error": err.Error()})
}

// --- templates ---------------------------------------------------------------

var baseCSS = `<style>
body{font-family:sans-serif;max-width:60em;margin:2em auto;color:#222}
table{border-collapse:collapse;width:100%} td,th{border:1px solid #ccc;padding:.4em .6em;text-align:left}
form.inline{display:inline} input,textarea,select{margin:.2em 0}
.badge{padding:.1em .5em;border-radius:.4em;background:#eef}
</style>`

var (
	errTmpl = template.Must(template.New("err").Parse(baseCSS +
		`<h1>Error</h1><p>{{.Error}}</p><p><a href="/dashboard">back</a></p>`))

	loginTmpl = template.Must(template.New("login").Parse(baseCSS + `
<h1>Evolving Rental Agreement Manager</h1>
<h2>Login</h2>
<form method="post" action="/login">
 <label>Username <input name="name"></label><br>
 <label>Password <input type="password" name="password"></label><br>
 <button type="submit">LOGIN</button>
</form>
<p>No account? <a href="/register">Register</a></p>`))

	registerTmpl = template.Must(template.New("register").Parse(baseCSS + `
<h1>Register</h1>
<form method="post" action="/register">
 <label>Username <input name="name"></label><br>
 <label>Email <input name="email"></label><br>
 <label>Password <input type="password" name="password"></label><br>
 <button type="submit">REGISTER</button>
</form>`))

	dashboardTmpl = template.Must(template.New("dash").Parse(baseCSS + `
<h1>Dashboard</h1>
<p>FOR USER — <b>{{.User.Name}}</b> · BALANCE — {{.BalanceEth}} ETH · account {{.User.Address}}
 · <a href="/logout">logout</a></p>
<p><a href="/upload">UPLOAD A NEW CONTRACT</a> · <a href="/deploy">DEPLOY</a></p>
<table>
<tr><th>Contract</th><th>House</th><th>Version</th><th>State</th><th>Role</th><th>Action</th></tr>
{{range .Rows}}
<tr>
 <td><a href="/contract/{{.Address}}">{{.Name}}</a></td>
 <td>{{.House}}</td><td>v{{.Version}}</td><td>{{.State}}</td><td>{{.Role}}</td>
 <td><span class="badge">{{.Action}}</span></td>
</tr>
{{end}}
</table>
<h2>Available contracts to deploy</h2>
<ul>{{range .Artifacts}}<li>{{.}}</li>{{end}}<li>baserental (built-in)</li></ul>`))

	uploadTmpl = template.Must(template.New("upload").Parse(baseCSS + `
<h1>Upload a new contract</h1>
<h2>From compiled artifact (bytecode + ABI)</h2>
<form method="post" action="/upload">
 <label>Name <input name="name"></label><br>
 <label>Bytecode (0x-hex)<br><textarea name="bytecode" rows="4" cols="80"></textarea></label><br>
 <label>ABI (JSON)<br><textarea name="abi" rows="4" cols="80"></textarea></label><br>
 <button type="submit">UPLOAD</button>
</form>
<h2>Or from source</h2>
<form method="post" action="/upload">
 <label>Contract name <input name="contract"></label><br>
 <label>Source<br><textarea name="source" rows="12" cols="80"></textarea></label><br>
 <button type="submit">COMPILE &amp; UPLOAD</button>
</form>
<p><a href="/dashboard">back</a></p>`))

	deployTmpl = template.Must(template.New("deploy").Parse(baseCSS + `
<h1>Deploy a rental agreement</h1>
<form method="post" action="/deploy">
 <label>Artifact <select name="artifact"><option value="BaseRental">BaseRental (built-in)</option>
 {{range .Artifacts}}<option>{{.}}</option>{{end}}</select></label><br>
 <label>Rent (ETH/month) <input name="rent" value="1"></label><br>
 <label>Deposit (ETH) <input name="deposit" value="2"></label><br>
 <label>Months <input name="months" value="12"></label><br>
 <label>House (zip + number) <input name="house"></label><br>
 <label>Legal document (text/PDF bytes)<br><textarea name="document" rows="6" cols="80"></textarea></label><br>
 <button type="submit">DEPLOY</button>
</form>
<p><a href="/dashboard">back</a></p>`))

	contractTmpl = template.Must(template.New("contract").Parse(baseCSS + `
<h1>{{.Row.Name}} <small>v{{.Row.Version}} — {{.Row.State}}</small></h1>
<p>Address {{.Row.Address}} · house <b>{{.House}}</b> · rent {{.RentEth}} ETH
 {{if .DueEth}}(due {{.DueEth}} ETH){{end}} · {{.Months}} months</p>
{{if .HasDoc}}<p><a href="/doc/{{.Row.Address}}">View legal document (PDF)</a></p>{{end}}

{{if eq .StateNum 0}}{{if not .IsLandlord}}
<form class="inline" method="post" action="/contract/{{.Row.Address}}/confirm"><button>CONFIRM AGREEMENT (pays deposit)</button></form>
{{if .Row.Prev}}<form class="inline" method="post" action="/contract/{{.Row.Address}}/reject-modification"><button>REJECT MODIFICATION</button></form>
<form class="inline" method="post" action="/contract/{{.Row.Address}}/confirm-modification"><button>CONFIRM MODIFICATION</button></form>{{end}}
{{end}}{{end}}

{{if eq .StateNum 1}}
{{if .IsTenant}}
<form class="inline" method="post" action="/contract/{{.Row.Address}}/pay"><button>PAY RENT</button></form>
{{if .HasMaint}}<form class="inline" method="post" action="/contract/{{.Row.Address}}/maintenance"><button>PAY MAINTENANCE</button></form>{{end}}
{{end}}
{{if or .IsTenant .IsLandlord}}
<form class="inline" method="post" action="/contract/{{.Row.Address}}/terminate"><button>TERMINATE CONTRACT</button></form>
{{end}}
{{if .IsLandlord}}
<h2>Modify contract (deploys a new linked version)</h2>
<form method="post" action="/contract/{{.Row.Address}}/modify">
 <label>Rent (ETH) <input name="rent" value="1"></label>
 <label>Deposit (ETH) <input name="deposit" value="2"></label>
 <label>Months <input name="months" value="12"></label><br>
 <label>House <input name="house" value="{{.House}}"></label><br>
 <label>Maintenance fee (ETH) <input name="maintenance" value="0.1"></label>
 <label>Discount (ETH) <input name="discount" value="0"></label>
 <label>Early-exit fine (ETH) <input name="fine" value="1"></label><br>
 <label>Updated legal document<br><textarea name="document" rows="4" cols="80"></textarea></label><br>
 <button type="submit">MODIFY CONTRACT</button>
</form>
{{end}}
{{end}}

<h2>Version chain (evidence line)</h2>
<ol>
{{range .Versions}}<li><a href="/contract/{{.Address.Hex}}">{{.Address.Hex}}</a> — v{{.Version}} {{.State}}</li>{{end}}
</ol>

<h2>Rent payments (all versions)</h2>
<table><tr><th>Version</th><th>Month</th><th>Amount (wei)</th></tr>
{{range .Paid}}<tr><td>v{{.Version}}</td><td>{{.Month}}</td><td>{{.Amount}}</td></tr>{{end}}
</table>
<p><a href="/dashboard">back to dashboard</a></p>`))
)
