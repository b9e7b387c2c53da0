// Package ws is a minimal RFC 6455 WebSocket implementation built on
// the standard library only. It covers exactly what the subscription
// tier needs — server-side upgrade, client-side dial, text/binary
// messages, ping/pong and close handshakes — and nothing else: no
// extensions, no compression, no subprotocol negotiation.
//
// A Conn is safe for one concurrent reader and one concurrent writer;
// writes are serialised internally so control frames (pong, close) may
// be sent from the read loop while another goroutine streams data.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Frame opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// Close status codes (RFC 6455 §7.4.1).
const (
	CloseNormal          = 1000
	CloseGoingAway       = 1001
	CloseProtocolError   = 1002
	CloseUnsupported     = 1003
	CloseInvalidPayload  = 1007
	ClosePolicyViolation = 1008
	CloseTooLarge        = 1009
	CloseInternalError   = 1011
)

// magicGUID is the fixed key-digest suffix from RFC 6455 §1.3.
const magicGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// maxControlPayload is the RFC limit for control-frame payloads; a
// close frame spends two of those bytes on the status code.
const maxControlPayload = 125

// MaxCloseReason is the longest close-reason text that fits a close
// frame next to its 2-byte status code.
const MaxCloseReason = maxControlPayload - 2

// DefaultMaxMessage bounds incoming message size; a peer exceeding it
// gets a 1009 close. Subscription traffic is small JSON, so 4 MiB is
// generous.
const DefaultMaxMessage = 4 << 20

// CloseError is returned by Read methods once the peer has sent a
// close frame (or the connection is locally closed).
type CloseError struct {
	Code   int
	Reason string
}

func (e *CloseError) Error() string {
	return fmt.Sprintf("ws: closed %d %q", e.Code, e.Reason)
}

// ErrBadHandshake is returned by Dial when the server does not
// complete the RFC 6455 upgrade.
var ErrBadHandshake = errors.New("ws: bad handshake")

// Conn is an established WebSocket connection.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // true: we mask outgoing frames; false: we require masked incoming

	wmu       sync.Mutex // serialises whole frames onto conn
	closeOnce sync.Once
	closeSent bool

	// MaxMessage bounds the total size of an incoming (possibly
	// fragmented) message. Zero means DefaultMaxMessage.
	MaxMessage int64
}

// acceptKey computes the Sec-WebSocket-Accept digest for a key.
func acceptKey(key string) string {
	h := sha1.Sum([]byte(key + magicGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Upgrade hijacks an HTTP request and completes the server side of the
// RFC 6455 opening handshake. On error it has already written an HTTP
// error response.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket: method must be GET", http.StatusMethodNotAllowed)
		return nil, errors.New("ws: method not GET")
	}
	if !tokenListContains(r.Header.Get("Connection"), "upgrade") {
		http.Error(w, "websocket: Connection header must include upgrade", http.StatusBadRequest)
		return nil, errors.New("ws: missing Connection: upgrade")
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "websocket: Upgrade header must be websocket", http.StatusBadRequest)
		return nil, errors.New("ws: missing Upgrade: websocket")
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "websocket: unsupported version", http.StatusUpgradeRequired)
		return nil, errors.New("ws: unsupported version")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "websocket: missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("ws: missing key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket: response does not support hijacking", http.StatusInternalServerError)
		return nil, errors.New("ws: not a hijacker")
	}
	netConn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "websocket: hijack failed", http.StatusInternalServerError)
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := netConn.Write([]byte(resp)); err != nil {
		netConn.Close()
		return nil, fmt.Errorf("ws: write handshake: %w", err)
	}
	return &Conn{conn: netConn, br: rw.Reader, client: false}, nil
}

// tokenListContains reports whether a comma-separated header value
// contains token (case-insensitive) — Connection can be "keep-alive,
// Upgrade".
func tokenListContains(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// Dial opens a client WebSocket connection to url ("ws://host:port/path").
func Dial(rawURL string, timeout time.Duration) (*Conn, error) {
	rest, ok := strings.CutPrefix(rawURL, "ws://")
	if !ok {
		return nil, fmt.Errorf("ws: unsupported url %q (only ws:// is implemented)", rawURL)
	}
	host := rest
	path := "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, path = rest[:i], rest[i:]
	}
	if !strings.Contains(host, ":") {
		host += ":80"
	}
	d := net.Dialer{Timeout: timeout}
	netConn, err := d.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	keyBytes := make([]byte, 16)
	if _, err := rand.Read(keyBytes); err != nil {
		netConn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if timeout > 0 {
		netConn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := netConn.Write([]byte(req)); err != nil {
		netConn.Close()
		return nil, err
	}
	br := bufio.NewReader(netConn)
	status, err := br.ReadString('\n')
	if err != nil {
		netConn.Close()
		return nil, err
	}
	if !strings.Contains(status, "101") {
		netConn.Close()
		return nil, fmt.Errorf("%w: %s", ErrBadHandshake, strings.TrimSpace(status))
	}
	var accept string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			netConn.Close()
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if name, value, ok := strings.Cut(line, ":"); ok &&
			strings.EqualFold(strings.TrimSpace(name), "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(value)
		}
	}
	if accept != acceptKey(key) {
		netConn.Close()
		return nil, fmt.Errorf("%w: Sec-WebSocket-Accept mismatch", ErrBadHandshake)
	}
	netConn.SetDeadline(time.Time{})
	return &Conn{conn: netConn, br: br, client: true}, nil
}

// SetReadDeadline bounds the next ReadMessage call.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// writeFrame sends one frame with FIN set.
func (c *Conn) writeFrame(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closeSent && opcode != opClose {
		return net.ErrClosed
	}
	return c.writeFrameLocked(opcode, payload)
}

func (c *Conn) writeFrameLocked(opcode byte, payload []byte) error {
	var hdr [14]byte
	hdr[0] = 0x80 | opcode // FIN + opcode
	n := 2
	switch {
	case len(payload) < 126:
		hdr[1] = byte(len(payload))
	case len(payload) < 1<<16:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(payload)))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(len(payload)))
		n = 10
	}
	if c.client {
		hdr[1] |= 0x80 // MASK bit
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return err
		}
		copy(hdr[n:], mask[:])
		n += 4
		masked := make([]byte, len(payload))
		for i, b := range payload {
			masked[i] = b ^ mask[i&3]
		}
		payload = masked
	}
	if _, err := c.conn.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := c.conn.Write(payload)
	return err
}

// WriteMessage sends one complete text or binary message.
func (c *Conn) WriteMessage(opcode byte, payload []byte) error {
	if opcode != OpText && opcode != OpBinary {
		return fmt.Errorf("ws: WriteMessage opcode %#x", opcode)
	}
	return c.writeFrame(opcode, payload)
}

// WriteText sends s as a text message.
func (c *Conn) WriteText(s string) error { return c.writeFrame(OpText, []byte(s)) }

// Close sends a close frame with the given status code and reason
// (truncated to MaxCloseReason bytes) and closes the connection. Safe
// to call multiple times; only the first wins.
func (c *Conn) Close(code int, reason string) error {
	var err error
	c.closeOnce.Do(func() {
		if len(reason) > MaxCloseReason {
			reason = reason[:MaxCloseReason]
		}
		payload := make([]byte, 2+len(reason))
		binary.BigEndian.PutUint16(payload, uint16(code))
		copy(payload[2:], reason)
		c.wmu.Lock()
		werr := c.writeFrameLocked(opClose, payload)
		c.closeSent = true
		c.wmu.Unlock()
		// Give the peer a moment to read the close frame, then drop
		// the TCP connection either way.
		cerr := c.conn.Close()
		if werr != nil {
			err = werr
		} else {
			err = cerr
		}
	})
	return err
}

// readFrame reads one frame, unmasking if needed. It enforces the
// client/server masking rules from RFC 6455 §5.1.
func (c *Conn) readFrame() (opcode byte, fin bool, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return 0, false, nil, errors.New("ws: reserved bits set (extensions are not negotiated)")
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	max := c.MaxMessage
	if max == 0 {
		max = DefaultMaxMessage
	}
	if length > uint64(max) {
		return 0, false, nil, fmt.Errorf("ws: frame of %d bytes exceeds limit %d", length, max)
	}
	if !c.client && !masked {
		return 0, false, nil, errors.New("ws: client frame not masked")
	}
	var mask [4]byte
	if masked {
		if _, err = io.ReadFull(c.br, mask[:]); err != nil {
			return 0, false, nil, err
		}
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(c.br, payload); err != nil {
		return 0, false, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i&3]
		}
	}
	return opcode, fin, payload, nil
}

// ReadMessage reads the next complete data message, transparently
// answering pings and reassembling fragments. When the peer closes, it
// returns a *CloseError carrying the peer's status code and reason.
func (c *Conn) ReadMessage() (opcode byte, payload []byte, err error) {
	var msg []byte
	var msgOp byte
	for {
		op, fin, data, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case opPing:
			if len(data) > maxControlPayload {
				data = data[:maxControlPayload]
			}
			if err := c.writeFrame(opPong, data); err != nil {
				return 0, nil, err
			}
			continue
		case opPong:
			continue
		case opClose:
			ce := &CloseError{Code: CloseNormal}
			if len(data) >= 2 {
				ce.Code = int(binary.BigEndian.Uint16(data[:2]))
				ce.Reason = string(data[2:])
			}
			// Echo the close and tear down (RFC 6455 §5.5.1).
			c.Close(ce.Code, "")
			return 0, nil, ce
		case OpText, OpBinary:
			if msg != nil {
				return 0, nil, errors.New("ws: new data frame inside fragmented message")
			}
			if fin {
				return op, data, nil
			}
			msgOp, msg = op, data
		case opContinuation:
			if msg == nil {
				return 0, nil, errors.New("ws: continuation without start frame")
			}
			max := c.MaxMessage
			if max == 0 {
				max = DefaultMaxMessage
			}
			if int64(len(msg))+int64(len(data)) > max {
				return 0, nil, fmt.Errorf("ws: message exceeds limit %d", max)
			}
			msg = append(msg, data...)
			if fin {
				return msgOp, msg, nil
			}
		default:
			return 0, nil, fmt.Errorf("ws: unknown opcode %#x", op)
		}
	}
}
