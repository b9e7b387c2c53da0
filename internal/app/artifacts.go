package app

import (
	"fmt"
	"sort"
	"strings"

	"legalchain/internal/abi"
	"legalchain/internal/core"
	"legalchain/internal/hexutil"
	"legalchain/internal/minisol"
)

// ArtifactRow is an uploaded (or compiled) contract artifact, the
// object of the paper's upload screen (Fig. 9): a name, the deployment
// bytecode and the ABI document. A compiled artifact also keeps its
// storage layout, which a deployed version publishes: the manager reads
// a version's next and previous pointers at the slots it names, so an
// uploaded artifact without one deploys as a version that cannot be
// linked.
type ArtifactRow struct {
	Name     string `json:"name"`
	ABIJSON  string `json:"abi"`
	Bytecode string `json:"bytecode"` // 0x-hex deployment code
	Layout   string `json:"layout,omitempty"`
	Source   string `json:"source,omitempty"`
	Owner    string `json:"owner"`
}

// UploadArtifact stores a pre-built artifact (bytecode + ABI), as in
// Fig. 9 where the landlord uploads the two files.
func (a *App) UploadArtifact(owner *User, name, abiJSON, bytecodeHex string) (*ArtifactRow, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, fmt.Errorf("app: artifact name required")
	}
	if _, err := abi.ParseJSON([]byte(abiJSON)); err != nil {
		return nil, fmt.Errorf("app: invalid ABI: %w", err)
	}
	if _, err := hexutil.Decode(bytecodeHex); err != nil {
		return nil, fmt.Errorf("app: invalid bytecode hex: %w", err)
	}
	row := &ArtifactRow{Name: name, ABIJSON: abiJSON, Bytecode: bytecodeHex, Owner: owner.Name}
	if err := a.Manager.Store.Put(core.TableArtifacts, strings.ToLower(name), row); err != nil {
		return nil, err
	}
	return row, nil
}

// CompileArtifact compiles minisol source in the browser flow and stores
// the result under the contract's name.
func (a *App) CompileArtifact(owner *User, source, contractName string) (*ArtifactRow, error) {
	art, err := minisol.CompileContract(source, contractName)
	if err != nil {
		return nil, err
	}
	row := &ArtifactRow{
		Name:     art.Name,
		ABIJSON:  string(art.ABIJSON),
		Bytecode: hexutil.Encode(art.Bytecode),
		Layout:   string(art.Layout.JSON()),
		Source:   source,
		Owner:    owner.Name,
	}
	if err := a.Manager.Store.Put(core.TableArtifacts, strings.ToLower(art.Name), row); err != nil {
		return nil, err
	}
	return row, nil
}

// GetArtifact loads an uploaded artifact and reconstitutes a deployable
// minisol.Artifact from it.
func (a *App) GetArtifact(name string) (*minisol.Artifact, error) {
	var row ArtifactRow
	if err := a.Manager.Store.Get(core.TableArtifacts, strings.ToLower(name), &row); err != nil {
		return nil, err
	}
	parsed, err := abi.ParseJSON([]byte(row.ABIJSON))
	if err != nil {
		return nil, err
	}
	code, err := hexutil.Decode(row.Bytecode)
	if err != nil {
		return nil, err
	}
	var layout *minisol.Layout
	if row.Layout != "" {
		if layout, err = minisol.ParseLayout([]byte(row.Layout)); err != nil {
			return nil, err
		}
	}
	return &minisol.Artifact{
		Name:     row.Name,
		ABI:      parsed,
		ABIJSON:  []byte(row.ABIJSON),
		Bytecode: code,
		Layout:   layout,
	}, nil
}

// Artifacts lists uploaded artifact names, sorted.
func (a *App) Artifacts() []string {
	keys := a.Manager.Store.Keys(core.TableArtifacts)
	sort.Strings(keys)
	return keys
}
