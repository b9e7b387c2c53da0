package core

import (
	"encoding/json"
	"testing"
)

// FuzzReadRow feeds arbitrary bytes to the registry row reader and to
// json.Unmarshal into a ContractRow, its oracle: both refuse the input,
// or both decode the same row.
func FuzzReadRow(f *testing.F) {
	full, err := json.Marshal(ContractRow{
		Address: "0x5FbDB2315678afecb367f032d93F642f64180aa3", Name: "RentalAgreementV2",
		Landlord: "0xf39Fd6e51aad88F6F4ce6aB8827279cffFb92266", Tenant: "0x70997970C51812dc3A010C7d01b50e0d17dc79C8",
		Version: 3, State: StateActive, ABICID: "Qm-abi", LayoutCID: "Qm-layout", DocumentCID: "Qm-doc",
		Prev: "0x0000000000000000000000000000000000000001", Next: "0x0000000000000000000000000000000000000002",
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(full),
		`{}`,
		`null`,
		` {"address":"0xab","version":1} `,
		`{"Address":"upper","ADDRESS":"shout"}`,
		`{"abiCid":"Qm1","ABICID":"Qm2","abicid":null}`,
		`{"ſtate":"long s"}`,
		`{"version":1.0}`,
		`{"version":1e2}`,
		`{"version":-0}`,
		`{"version":9223372036854775808}`,
		`{"version":"3"}`,
		`{"name":1}`,
		`{"name":null,"version":null}`,
		`{"name":"\u00e9\ud800x\"\\"}`,
		"{\"name\":\"\xff\xfe\"}",
		`{"extra":{"a":[1,2,{"b":null}],"c":true},"name":"kept"}`,
		`{"name":"x"} trailing`,
		`{"name":"x",}`,
		`{"name" "x"}`,
		`[]`,
		`"row"`,
		`7`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readRow(data)
		var want ContractRow
		wantErr := json.Unmarshal(data, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: readRow error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if err == nil && got != want {
			t.Fatalf("%q:\n got %+v\nwant %+v", data, got, want)
		}
	})
}
