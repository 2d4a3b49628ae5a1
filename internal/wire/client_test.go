package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDialDeadTargetFailsFast: nothing listens on port 1, so Dial
// returns the connect error at once instead of waiting out the
// handshake timeout.
func TestDialDeadTargetFailsFast(t *testing.T) {
	start := time.Now()
	c, err := Dial(context.Background(), "http://127.0.0.1:1", Options{HandshakeTimeout: 10 * time.Second})
	if err == nil {
		c.Close()
		t.Fatal("Dial to a dead target succeeded")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("dead target error = %v, want a dial failure", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Dial took %s to fail, want at once", elapsed)
	}
}

// TestClientReleasesConnWhenServerHangsUp: a server that says goodbye
// and hangs up leaves the client draining, with its connection closed
// although nobody called Close — a client dropped after a goodbye
// holds no socket.
func TestClientReleasesConnWhenServerHangsUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := http.ReadRequest(br); err != nil {
			served <- err
			return
		}
		bw := bufio.NewWriter(conn)
		bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + UpgradeProtocol + "\r\n\r\n")
		f := Frame{Type: TypeGoodbye}
		if err := WriteFrame(bw, &f, nil); err != nil {
			served <- err
			return
		}
		served <- bw.Flush()
	}()

	c, err := Dial(context.Background(), "http://"+ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}
	select {
	case <-c.readDone:
	case <-time.After(10 * time.Second):
		t.Fatal("read loop still running after the server hung up")
	}
	if !c.Draining() {
		t.Fatal("client missed the goodbye")
	}
	if _, err := c.conn.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on the client's conn = %v, want net.ErrClosed (connection still open)", err)
	}
	if _, _, err := c.Load(context.Background(), &LoadRequest{Page: "Alipay"}); err == nil {
		t.Fatal("Load on a hung-up client succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after hang-up: %v", err)
	}
}
