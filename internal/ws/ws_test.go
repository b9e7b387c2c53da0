package ws

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// pair spins up an HTTP server whose handler upgrades to WebSocket and
// hands the server conn to the test via a channel, then dials it.
func pair(t *testing.T) (client, server *Conn) {
	t.Helper()
	serverCh := make(chan *Conn, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		serverCh <- c
	}))
	t.Cleanup(srv.Close)
	c, err := Dial("ws"+strings.TrimPrefix(srv.URL, "http"), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close(CloseGoingAway, "") })
	select {
	case s := <-serverCh:
		t.Cleanup(func() { s.Close(CloseGoingAway, "") })
		return c, s
	case <-time.After(5 * time.Second):
		t.Fatal("server conn never arrived")
		return nil, nil
	}
}

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

func TestEcho(t *testing.T) {
	c, s := pair(t)
	go func() {
		for {
			op, msg, err := s.ReadMessage()
			if err != nil {
				return
			}
			s.WriteMessage(op, msg)
		}
	}()
	for _, msg := range []string{"hello", "", strings.Repeat("x", 70000)} {
		if err := c.WriteText(msg); err != nil {
			t.Fatalf("write: %v", err)
		}
		op, got, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if op != OpText || string(got) != msg {
			t.Fatalf("echo mismatch: op=%d len=%d want len=%d", op, len(got), len(msg))
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	c, s := pair(t)
	payload := []byte{0, 1, 2, 0xFF, 0xFE}
	if err := s.WriteMessage(OpBinary, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	op, got, err := c.ReadMessage()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if op != OpBinary || !bytes.Equal(got, payload) {
		t.Fatalf("got op=%d %v", op, got)
	}
}

func TestPingAnsweredTransparently(t *testing.T) {
	c, s := pair(t)
	if err := c.writeFrame(opPing, []byte("are-you-there")); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// The server's next ReadMessage should answer the ping internally
	// and then deliver the data message that follows it.
	if err := c.WriteText("after-ping"); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, msg, err := s.ReadMessage()
	if err != nil {
		t.Fatalf("server read: %v", err)
	}
	if string(msg) != "after-ping" {
		t.Fatalf("server got %q", msg)
	}
}

func TestCloseCodeAndReason(t *testing.T) {
	c, s := pair(t)
	go s.Close(ClosePolicyViolation, "too slow")
	_, _, err := c.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("want CloseError, got %v", err)
	}
	if ce.Code != ClosePolicyViolation || ce.Reason != "too slow" {
		t.Fatalf("got %d %q", ce.Code, ce.Reason)
	}
}

func TestCloseReasonTruncated(t *testing.T) {
	c, s := pair(t)
	long := strings.Repeat("r", 300)
	go s.Close(CloseNormal, long)
	_, _, err := c.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("want CloseError, got %v", err)
	}
	if len(ce.Reason) != MaxCloseReason {
		t.Fatalf("reason length %d, want %d", len(ce.Reason), MaxCloseReason)
	}
}

func TestConcurrentWriters(t *testing.T) {
	c, s := pair(t)
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.WriteText("msg"); err != nil {
					return
				}
			}
		}()
	}
	got := 0
	for got < writers*per {
		_, msg, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("read after %d: %v", got, err)
		}
		if string(msg) != "msg" {
			t.Fatalf("corrupt frame: %q", msg)
		}
		got++
	}
	wg.Wait()
}

func TestUpgradeRejectsNonWebSocket(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("upgrade accepted a plain GET")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusSwitchingProtocols {
		t.Fatal("plain GET was upgraded")
	}
}

func TestMessageSizeLimit(t *testing.T) {
	c, s := pair(t)
	s.MaxMessage = 16
	if err := c.WriteText(strings.Repeat("x", 64)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := s.ReadMessage(); err == nil {
		t.Fatal("oversize message accepted")
	}
}

// fuzzMaxMessage is FuzzReadMessage's message limit: past the 16-bit
// length form, so a frame in any of the three forms can be accepted, and
// small enough that a hostile length allocates little.
const fuzzMaxMessage = 1<<16 + 64

// FuzzReadMessage reads fuzzer bytes as a stream of frames, as the
// server (client false: frames must be masked) or the client. Pongs and
// the close echo go into a net.Pipe whose far end is drained. Reading
// must never panic nor return a message above the limit. Then the input,
// cut to the limit, is written as one frame by the other side through a
// net.Pipe and must read back as it was sent.
func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, client bool, input []byte) {
		near, far := net.Pipe()
		go io.Copy(io.Discard, far)
		defer far.Close()
		c := &Conn{conn: near, br: bufio.NewReader(bytes.NewReader(input)), client: client, MaxMessage: fuzzMaxMessage}
		for {
			_, payload, err := c.ReadMessage()
			if err != nil {
				break
			}
			if len(payload) > fuzzMaxMessage {
				t.Fatalf("read a %d-byte message, limit %d", len(payload), fuzzMaxMessage)
			}
		}
		near.Close()

		payload := input[:min(len(input), fuzzMaxMessage)]
		op := byte(OpText)
		if len(input)%2 == 1 {
			op = OpBinary
		}
		near, far = net.Pipe()
		defer near.Close()
		defer far.Close()
		w := &Conn{conn: near, client: !client}
		r := &Conn{conn: far, br: bufio.NewReader(far), client: client, MaxMessage: fuzzMaxMessage}
		werr := make(chan error, 1)
		go func() {
			werr <- w.writeFrame(op, payload)
			near.Close()
		}()
		gotOp, got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("reading back a %d-byte frame: %v", len(payload), err)
		}
		// Drain to the writer's close: a pipe write, even an empty one,
		// waits for its read.
		if n, _ := io.Copy(io.Discard, r.br); n != 0 {
			t.Fatalf("%d bytes follow the frame", n)
		}
		if err := <-werr; err != nil {
			t.Fatalf("writing a %d-byte frame: %v", len(payload), err)
		}
		if gotOp != op || !bytes.Equal(got, payload) {
			t.Fatalf("wrote op %#x, %d bytes; read op %#x, %d bytes", op, len(payload), gotOp, len(got))
		}
	})
}
