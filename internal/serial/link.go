package serial

import (
	"fmt"
	"io"
	"time"

	"tcast/internal/mote"
)

// This file wires the wire protocol to the mote emulation: ServeInitiator
// runs a decode-dispatch-encode loop that exposes an emulated initiator
// mote over any byte stream (net.Pipe in tests, a PTY or TCP socket in a
// hardware-in-the-loop setup), and Client is the controller-side stub.

// Error codes carried by OpError frames.
const (
	CodeNotConfigured = 1
	CodeQueryFailed   = 2
	CodeBadCommand    = 3
)

// ServeInitiator speaks the serial protocol over rw on behalf of an
// initiator mote until rw closes or an I/O error occurs. Configure and
// Reboot are acknowledged with OpAck; Query returns OpQueryResult or
// OpError.
func ServeInitiator(rw io.ReadWriter, ini *mote.Initiator) error {
	for {
		m, err := Decode(rw)
		if err != nil {
			if err == io.EOF || err == io.ErrClosedPipe {
				return nil
			}
			return err
		}
		var reply Message
		switch m.Op {
		case OpConfigureInitiator:
			ini.Configure(m.Threshold)
			reply = Message{Op: OpAck}
		case OpReboot:
			ini.Reboot()
			reply = Message{Op: OpAck}
		case OpQuery:
			outcome, err := ini.Query()
			if err == mote.ErrNotConfigured {
				reply = Message{Op: OpError, Code: CodeNotConfigured}
			} else if err != nil {
				reply = Message{Op: OpError, Code: CodeQueryFailed}
			} else {
				reply = Message{
					Op:       OpQueryResult,
					Decision: outcome.Decision,
					Queries:  outcome.Queries,
					Rounds:   outcome.Rounds,
				}
			}
		default:
			reply = Message{Op: OpError, Code: CodeBadCommand}
		}
		if err := Encode(rw, reply); err != nil {
			return err
		}
	}
}

// Client is the controller-side stub for one serial link.
type Client struct {
	rw io.ReadWriter
	// Timeout bounds how long a round trip waits for the mote's reply.
	// Zero means wait forever — the historical behavior, under which a
	// wedged mote hangs the whole controller run. A positive Timeout
	// requires rw to support read deadlines (net.Conn does; a PTY file
	// usually does via os.File): the deadline is armed per round trip and
	// cleared afterwards, and an expired deadline surfaces as the stream's
	// timeout error so the caller can fail the session instead of hanging.
	Timeout time.Duration
}

// deadliner is the read-deadline capability Timeout needs from rw.
type deadliner interface {
	SetReadDeadline(t time.Time) error
}

// NewClient wraps a byte stream to a mote.
func NewClient(rw io.ReadWriter) *Client { return &Client{rw: rw} }

func (c *Client) roundTrip(m Message) (Message, error) {
	if err := Encode(c.rw, m); err != nil {
		return Message{}, err
	}
	if c.Timeout > 0 {
		d, ok := c.rw.(deadliner)
		if !ok {
			// Fail loudly rather than silently waiting forever on a
			// stream that cannot honor the configured bound.
			return Message{}, fmt.Errorf("serial: timeout configured but %T supports no read deadline", c.rw)
		}
		if err := d.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
			return Message{}, fmt.Errorf("serial: arming read deadline: %w", err)
		}
		defer func() { _ = d.SetReadDeadline(time.Time{}) }()
	}
	return Decode(c.rw)
}

func (c *Client) expectAck(m Message) error {
	reply, err := c.roundTrip(m)
	if err != nil {
		return err
	}
	if reply.Op != OpAck {
		return fmt.Errorf("serial: expected ack, got op 0x%02x (code %d)", uint8(reply.Op), reply.Code)
	}
	return nil
}

// ConfigureInitiator sets the initiator's threshold.
func (c *Client) ConfigureInitiator(threshold int) error {
	return c.expectAck(Message{Op: OpConfigureInitiator, Threshold: threshold})
}

// Query stimulates one TCast run and returns its result.
func (c *Client) Query() (decision bool, queries, rounds int, err error) {
	reply, err := c.roundTrip(Message{Op: OpQuery})
	if err != nil {
		return false, 0, 0, err
	}
	switch reply.Op {
	case OpQueryResult:
		return reply.Decision, reply.Queries, reply.Rounds, nil
	case OpError:
		return false, 0, 0, fmt.Errorf("serial: mote error code %d", reply.Code)
	default:
		return false, 0, 0, fmt.Errorf("serial: unexpected op 0x%02x", uint8(reply.Op))
	}
}
