package web3

import (
	"context"
	"fmt"

	"legalchain/internal/ethtypes"
	"legalchain/internal/xtrace"
)

// ContextBackend is implemented by backends that can thread a
// context.Context — and with it an xtrace span — through writes.
// In-process backends forward the context straight into the chain tier;
// backends that cannot (remote HTTP) simply don't implement the
// interface and the client falls back to the plain Backend method.
type ContextBackend interface {
	SendRawTransactionCtx(ctx context.Context, raw []byte) (ethtypes.Hash, error)
}

// SendRawTransactionCtx implements ContextBackend: the span context
// flows into SendTransactionCtx and from there into the evm and blockdb
// tiers.
func (l *LocalBackend) SendRawTransactionCtx(ctx context.Context, raw []byte) (ethtypes.Hash, error) {
	tx, err := ethtypes.DecodeTransaction(raw)
	if err != nil {
		return ethtypes.Hash{}, err
	}
	return l.BC.SendTransactionCtx(ctx, tx)
}

// CallContractCtx is CallContract with span propagation into the chain
// tier.
func (l *LocalBackend) CallContractCtx(ctx context.Context, msg CallMsg) ([]byte, error) {
	res := l.BC.CallCtx(ctx, msg.From, msg.To, msg.Data, msg.Value, 0)
	if res.Err != nil {
		return res.Return, &RevertError{Reason: res.Reason}
	}
	return res.Return, nil
}

// sendRaw submits a signed transaction, threading ctx through when the
// backend supports it. The span marks the client-side rpc boundary, so
// in-process flows (the REST API calling the chain directly) still show
// the rpc tier between http and chain in their traces.
func (c *Client) sendRaw(ctx context.Context, raw []byte) (ethtypes.Hash, error) {
	cb, ok := c.backend.(ContextBackend)
	if !ok {
		return c.backend.SendRawTransaction(raw)
	}
	ctx, sp := xtrace.Start(ctx, "rpc", "eth_sendRawTransaction")
	hash, err := cb.SendRawTransactionCtx(ctx, raw)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	return hash, err
}

// TransactCtx is Transact with span propagation.
func (b *BoundContract) TransactCtx(ctx context.Context, opts TxOpts, method string, args ...interface{}) (*ethtypes.Receipt, error) {
	data, err := b.ABI.Pack(method, args...)
	if err != nil {
		return nil, err
	}
	rcpt, err := b.client.sendTxCtx(ctx, opts, &b.Address, data)
	if err != nil {
		return nil, err
	}
	if !rcpt.Succeeded() {
		return rcpt, fmt.Errorf("%w: %s", ErrTxFailed, rcpt.RevertReason)
	}
	return rcpt, nil
}
