// Package protostate exercises the wire-protocol duality rules: a frame
// kind written by one side with no opposite-side reader (D1), a frame-kind
// dispatch switch with a silent default (D2), and a write on a freshly
// dialed connection before the hello (D3). RunClient and the Server methods anchor the two
// call-graph sides by name, exactly as in internal/emu.
package protostate

import (
	"errors"

	"cmfl/internal/lint/testdata/src/protostate/net"
)

// msg* is the frame-kind wire alphabet.
const (
	msgHello byte = iota + 1
	msgData
	msgAck
	msgPing
)

type frame struct {
	kind    byte
	payload []byte
}

func writeFrame(c net.Conn, kind byte, payload []byte) error {
	_, err := c.Write(append([]byte{kind}, payload...))
	return err
}

// RunClient is the client side's entry point: everything it reaches is
// client-side.
func RunClient() error {
	c, err := connect()
	if err != nil {
		return err
	}
	if err := writeFrame(c, msgData, nil); err != nil {
		return err
	}
	var f frame
	switch f.kind {
	case msgAck:
		return nil
	default:
		return errors.New("unexpected reply kind")
	}
}

// connect dials and immediately negotiates: the first kind after the Dial
// is the hello, so D3 stays quiet.
func connect() (net.Conn, error) {
	c := net.Dial("emu")
	if err := hello(c); err != nil {
		return net.Conn{}, err
	}
	return c, nil
}

func hello(c net.Conn) error {
	return writeFrame(c, msgHello, nil)
}

// Server anchors the server side.
type Server struct{}

// serve is the server's frame dispatch: it reads what the client writes
// and rejects unknown kinds loudly.
func (s *Server) serve(c net.Conn, f frame) error {
	switch f.kind {
	case msgHello:
		return nil
	case msgData:
		return writeFrame(c, msgAck, nil)
	default:
		return errors.New("unknown frame kind")
	}
}

// ping writes a kind no client-side code ever reads: D1 fires at the
// write site.
func (s *Server) ping(c net.Conn) error {
	return writeFrame(c, msgPing, nil) // want "frame kind msgPing is written on the server side but has no client-side reader"
}

// preNegotiate writes a data frame on a connection it just dialed,
// before any hello: D3 fires at the write.
func preNegotiate() {
	c := net.Dial("emu")
	_ = writeFrame(c, msgData, nil) // want "frame kind msgData written on a freshly dialed connection before the msgHello handshake"
}

// classify dispatches on frame kinds but swallows unknown ones: D2.
func classify(f frame) int {
	switch f.kind { // want "frame-kind dispatch in classify swallows unknown kinds in its default"
	case msgData:
		return 1
	case msgAck:
		return 2
	default:
		return 0
	}
}
