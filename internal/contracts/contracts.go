// Package contracts holds the minisol sources of the legal smart
// contracts from the paper's case study — the DataStorage contract
// (Fig. 3), the BaseRental versioned contract (Fig. 5), the upgraded
// RentalAgreementV2 (Fig. 6) — plus an escrow agreement used by the
// examples and a hand-assembled delegatecall proxy that serves as the
// "mature OSS upgradeable-contract" baseline in the experiments.
package contracts

import (
	"fmt"
	"sync"

	"legalchain/internal/minisol"
)

// DataStorageSource is the data/logic-separation contract of Fig. 3,
// extended with owner access control and on-chain key enumeration so a
// new contract version can discover and import every key of its
// predecessor without off-chain records. It also keeps an on-chain
// payment ledger: an authorized notary contract (see notary.go) records
// every rent payment it relays, so the evidence of payment lives in the
// data tier and survives contract upgrades.
const DataStorageSource = `
pragma solidity ^0.5.0;

contract DataStorage {
	address public owner;
	mapping (address => mapping(string => string)) public keyValuePairs;
	mapping (address => mapping(string => bool)) public hasKey;
	mapping (address => uint) public keyCount;
	mapping (address => mapping(uint => string)) public keyAt;

	/* Payment ledger, written only by authorized notary contracts. */
	mapping (address => bool) public authorized;
	mapping (address => uint) public paymentCount;
	mapping (address => mapping(uint => uint)) public paymentAmount;

	/* In-place migration (FlexiContracts-style): a new version adopts its
	   predecessor's namespace through one pointer write instead of
	   re-importing every pair. Appended after the original declarations so
	   existing storage layouts are undisturbed. */
	mapping (address => address) public aliasOf;

	event valueSet(address indexed contractAddr, string key, string value);
	event paymentRecorded(address indexed contractAddr, uint index, uint amount);
	event namespaceAdopted(address indexed newAddr, address indexed oldAddr);

	constructor() public {
		owner = msg.sender;
	}

	function setValue(address contractAddr, string memory key, string memory value) public {
		require(msg.sender == owner, "only the manager may write");
		put(contractAddr, key, value);
	}

	function getValue(address contractAddr, string memory key) public view returns (string memory) {
		return keyValuePairs[contractAddr][key];
	}

	/* One-transaction data migration: every key of oldAddr becomes
	   visible under newAddr (the manager resolves the alias chain when
	   reading; writes to newAddr stay in its own namespace and shadow the
	   adopted values). Replaces the N-transaction setValue re-import. */
	function adoptNamespace(address newAddr, address oldAddr) public {
		require(msg.sender == owner, "only the manager may link namespaces");
		require(newAddr != oldAddr, "namespace cannot adopt itself");
		aliasOf[newAddr] = oldAddr;
		emit namespaceAdopted(newAddr, oldAddr);
	}

	/* One-transaction snapshot: every pair is written in call order, as
	   the same setValue calls would write them, or none is. */
	function setValues(address contractAddr, string[] memory keys, string[] memory values) public {
		require(msg.sender == owner, "only the manager may write");
		require(keys.length == values.length, "keys and values differ in length");
		for (uint i = 0; i < keys.length; i++) {
			put(contractAddr, keys[i], values[i]);
		}
	}

	/* The one write rule: a new key is enumerated once, at the end. */
	function put(address contractAddr, string memory key, string memory value) internal {
		if (!hasKey[contractAddr][key]) {
			hasKey[contractAddr][key] = true;
			keyAt[contractAddr][keyCount[contractAddr]] = key;
			keyCount[contractAddr] += 1;
		}
		keyValuePairs[contractAddr][key] = value;
		emit valueSet(contractAddr, key, value);
	}

	function authorize(address notary) public {
		require(msg.sender == owner, "only the manager authorizes");
		authorized[notary] = true;
	}

	function recordPayment(address contractAddr, uint amount) public {
		require(authorized[msg.sender], "caller is not an authorized notary");
		paymentAmount[contractAddr][paymentCount[contractAddr]] = amount;
		paymentCount[contractAddr] += 1;
		emit paymentRecorded(contractAddr, paymentCount[contractAddr], amount);
	}
}
`

// VersionedSourcePrelude is shared by every legal contract: the
// doubly-linked-list node of Fig. 2. Each deployed version stores the
// addresses of its neighbours; the contract manager sets the pointers
// when a new version is deployed.
const baseRentalSource = `
pragma solidity ^0.5.0;

contract BaseRental {
	/* This declares a new complex type which will hold the paid rents */
	struct PaidRent {
		uint Monthid; /* The paid rent id */
		uint value;   /* The amount of rent that is paid */
	}
	PaidRent[] public paidrents;

	uint public createdTimestamp;
	uint public rent;
	uint public deposit;
	/* Combination of zip code and house number */
	string public house;
	address payable public landlord;
	address payable public tenant;
	uint public contractTime; /* months */
	uint public monthCounter;

	enum State {Created, Started, Terminated}
	State public state;

	/* Address of the next contract linked */
	address public next;
	/* Address of the previous contract linked */
	address public previous;
	/* Payment notary allowed to relay the tenant's rent (see notary.go);
	   appended after the original declarations so existing storage
	   layouts are undisturbed. */
	address public paymentProxy;

	constructor(uint _rent, uint _deposit, uint _contractTime, string memory _house) public payable {
		rent = _rent;
		deposit = _deposit;
		contractTime = _contractTime;
		house = _house;
		landlord = msg.sender;
		createdTimestamp = block.timestamp;
		state = State.Created;
	}

	/* Events for DApps to listen to */
	event agreementConfirmed(address indexed tenant);
	event paidRent(address indexed tenant, uint month, uint amount);
	event contractTerminated(address indexed by, uint refunded);
	event versionLinked(address indexed neighbour, uint direction);

	/* Confirm the lease agreement as tenant, paying the deposit. */
	function confirmAgreement() public payable {
		require(state == State.Created, "agreement is not open");
		require(msg.sender != landlord, "landlord cannot be the tenant");
		require(msg.value == deposit, "deposit must match the agreement");
		tenant = msg.sender;
		state = State.Started;
		emit agreementConfirmed(msg.sender);
	}

	function payRent() public payable {
		require(state == State.Started, "contract is not active");
		require(msg.sender == tenant || msg.sender == paymentProxy, "only the tenant pays rent");
		require(msg.value == rent, "rent amount must match");
		monthCounter += 1;
		paidrents.push(PaidRent(monthCounter, msg.value));
		landlord.transfer(msg.value);
		emit paidRent(tenant, monthCounter, msg.value);
	}

	/* Let the landlord designate the payment notary that relays rent on
	   the tenant's behalf while recording evidence in the data tier. */
	function setPaymentProxy(address _proxy) public {
		require(msg.sender == landlord, "only the landlord sets the proxy");
		paymentProxy = _proxy;
	}

	/* Terminate: after the agreed period the tenant recovers the full
	   deposit; leaving early costs half the deposit as the penalty. */
	function terminateContract() public {
		require(state == State.Started, "contract is not active");
		require(msg.sender == landlord || msg.sender == tenant, "not a party");
		uint refund = deposit;
		if (msg.sender == tenant && monthCounter < contractTime) {
			refund = deposit / 2;
			landlord.transfer(deposit - refund);
		}
		state = State.Terminated;
		tenant.transfer(refund);
		emit contractTerminated(msg.sender, refund);
	}

	function getNext() public view returns (address addr) { return next; }
	function getPrev() public view returns (address addr) { return previous; }
	function setNext(address _next) public {
		require(msg.sender == landlord, "only the landlord links versions");
		next = _next;
		emit versionLinked(_next, 1);
	}
	function setPrev(address _previous) public {
		require(msg.sender == landlord, "only the landlord links versions");
		previous = _previous;
		emit versionLinked(_previous, 0);
	}
}
`

// rentalV2Source is the modified agreement of Fig. 6: a maintenance fee
// clause is added, rent is discounted, and early termination uses an
// explicit fine instead of half the deposit.
const rentalV2Source = baseRentalSource + `
contract RentalAgreementV2 is BaseRental {
	uint public maintenanceFee;
	uint public discount;
	uint public fine;
	uint public maintenancePaid;

	event paidMaintenance(address indexed tenant, uint amount);

	constructor(uint _rent, uint _deposit, uint _contractTime, string memory _house,
			uint _maintenanceFee, uint _discount, uint _fine) public payable {
		rent = _rent;
		deposit = _deposit;
		contractTime = _contractTime;
		house = _house;
		maintenanceFee = _maintenanceFee;
		discount = _discount;
		fine = _fine;
		landlord = msg.sender;
		createdTimestamp = block.timestamp;
		state = State.Created;
	}

	/* Updated pay-rent logic: the discount clause applies. */
	function payRent() public payable {
		require(state == State.Started, "contract is not active");
		require(msg.sender == tenant || msg.sender == paymentProxy, "only the tenant pays rent");
		require(msg.value == rent - discount, "discounted rent must match");
		monthCounter += 1;
		paidrents.push(PaidRent(monthCounter, msg.value));
		landlord.transfer(msg.value);
		emit paidRent(tenant, monthCounter, msg.value);
	}

	/* A new function to do something advanced: the maintenance clause. */
	function payMaintenanceFee() public payable {
		require(state == State.Started, "contract is not active");
		require(msg.sender == tenant, "only the tenant pays maintenance");
		require(msg.value == maintenanceFee, "maintenance fee must match");
		maintenancePaid += msg.value;
		landlord.transfer(msg.value);
		emit paidMaintenance(msg.sender, msg.value);
	}

	/* Updated termination logic: explicit fine clause. */
	function terminateContract() public {
		require(state == State.Started, "contract is not active");
		require(msg.sender == landlord || msg.sender == tenant, "not a party");
		uint refund = deposit;
		if (msg.sender == tenant && monthCounter < contractTime) {
			require(deposit >= fine, "fine exceeds deposit");
			refund = deposit - fine;
			landlord.transfer(fine);
		}
		state = State.Terminated;
		tenant.transfer(refund);
		emit contractTerminated(msg.sender, refund);
	}
}
`

// escrowSource is a second legal-agreement domain (freelance milestone
// escrow) showing the paper's roadmap generalizes beyond rentals. It
// reuses the same version-node pointers.
const escrowSource = `
pragma solidity ^0.5.0;

contract FreelanceEscrow {
	address payable public client;
	address payable public freelancer;
	uint public milestoneAmount;
	uint public milestonesTotal;
	uint public milestonesPaid;
	string public scope;

	enum State {Created, Funded, Completed, Cancelled}
	State public state;

	address public next;
	address public previous;

	event funded(address indexed client, uint amount);
	event milestoneApproved(uint indexed index, uint amount);
	event cancelled(address indexed by, uint refunded);

	constructor(address payable _freelancer, uint _milestoneAmount, uint _milestones, string memory _scope) public {
		client = msg.sender;
		freelancer = _freelancer;
		milestoneAmount = _milestoneAmount;
		milestonesTotal = _milestones;
		scope = _scope;
		state = State.Created;
	}

	function fund() public payable {
		require(msg.sender == client, "only the client funds");
		require(state == State.Created, "already funded");
		require(msg.value == milestoneAmount * milestonesTotal, "full escrow required");
		state = State.Funded;
		emit funded(msg.sender, msg.value);
	}

	function approveMilestone() public {
		require(msg.sender == client, "only the client approves");
		require(state == State.Funded, "escrow not active");
		milestonesPaid += 1;
		freelancer.transfer(milestoneAmount);
		emit milestoneApproved(milestonesPaid, milestoneAmount);
		if (milestonesPaid == milestonesTotal) {
			state = State.Completed;
		}
	}

	function cancel() public {
		require(msg.sender == client || msg.sender == freelancer, "not a party");
		require(state == State.Funded, "escrow not active");
		uint remaining = milestoneAmount * (milestonesTotal - milestonesPaid);
		state = State.Cancelled;
		client.transfer(remaining);
		emit cancelled(msg.sender, remaining);
	}

	function getNext() public view returns (address addr) { return next; }
	function getPrev() public view returns (address addr) { return previous; }
	function setNext(address _next) public { require(msg.sender == client, "only the client links"); next = _next; }
	function setPrev(address _previous) public { require(msg.sender == client, "only the client links"); previous = _previous; }
}
`

var (
	compileOnce sync.Once
	compiled    map[string]*minisol.Artifact
	compileErr  error
)

func compileAll() {
	compiled = map[string]*minisol.Artifact{}
	for _, src := range []string{DataStorageSource, rentalV2Source, escrowSource} {
		arts, err := minisol.Compile(src)
		if err != nil {
			compileErr = fmt.Errorf("contracts: %w", err)
			return
		}
		for _, a := range arts {
			compiled[a.Name] = a
		}
	}
}

// Artifact returns a compiled built-in contract by name: "DataStorage",
// "BaseRental", "RentalAgreementV2" or "FreelanceEscrow".
func Artifact(name string) (*minisol.Artifact, error) {
	compileOnce.Do(compileAll)
	if compileErr != nil {
		return nil, compileErr
	}
	a, ok := compiled[name]
	if !ok {
		return nil, fmt.Errorf("contracts: unknown contract %q", name)
	}
	return a, nil
}

// MustArtifact is Artifact for known-good names.
func MustArtifact(name string) *minisol.Artifact {
	a, err := Artifact(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Sources returns the raw minisol sources keyed by contract name, for
// tooling (legalctl, the upload UI).
func Sources() map[string]string {
	return map[string]string{
		"DataStorage":       DataStorageSource,
		"BaseRental":        baseRentalSource,
		"RentalAgreementV2": rentalV2Source,
		"FreelanceEscrow":   escrowSource,
	}
}
