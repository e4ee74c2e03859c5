package serial

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripAllOps(t *testing.T) {
	cases := []Message{
		{Op: OpConfigure, Positive: true},
		{Op: OpConfigure, Positive: false},
		{Op: OpConfigureInitiator, Threshold: 0},
		{Op: OpConfigureInitiator, Threshold: 65535},
		{Op: OpQuery},
		{Op: OpReboot},
		{Op: OpAck},
		{Op: OpQueryResult, Decision: true, Queries: 1234, Rounds: 7},
		{Op: OpQueryResult, Decision: false, Queries: 0, Rounds: 0},
		{Op: OpError, Code: 42},
	}
	for _, m := range cases {
		if got := roundTrip(t, m); got != m {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestEncodeRejectsBadValues(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Message{Op: Op(0x7F)}); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("unknown op: %v", err)
	}
	if err := Encode(&buf, Message{Op: OpConfigureInitiator, Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	if err := Encode(&buf, Message{Op: OpConfigureInitiator, Threshold: 70000}); err == nil {
		t.Error("oversized threshold accepted")
	}
	if err := Encode(&buf, Message{Op: OpQueryResult, Queries: -1}); err == nil {
		t.Error("negative queries accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Message{Op: OpQuery}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	// Bad sync.
	bad := append([]byte(nil), frame...)
	bad[0] = 0x55
	if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrBadSync) {
		t.Errorf("bad sync: %v", err)
	}
	// Flipped body bit.
	bad = append([]byte(nil), frame...)
	bad[2] ^= 0x01
	if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("flipped body: %v", err)
	}
	// Flipped checksum.
	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("flipped checksum: %v", err)
	}
	// Truncated frame.
	if _, err := Decode(bytes.NewReader(frame[:2])); err == nil {
		t.Error("truncated frame accepted")
	}
	// Zero-length payload.
	if _, err := Decode(bytes.NewReader([]byte{Sync, 0, 0})); !errors.Is(err, ErrBadLength) {
		t.Error("zero payload accepted")
	}
}

func TestDecodeRejectsLengthMismatch(t *testing.T) {
	// A frame claiming OpQuery (no body) but carrying one extra byte:
	// craft payload [op, junk] with a valid checksum.
	payload := []byte{2, byte(OpQuery), 0xEE}
	frame := append([]byte{Sync}, payload...)
	frame = append(frame, checksum(payload))
	if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, ErrBadLength) {
		t.Errorf("length mismatch: %v", err)
	}
}

func TestStreamOfFrames(t *testing.T) {
	// Several frames back-to-back decode in order.
	var buf bytes.Buffer
	msgs := []Message{
		{Op: OpReboot},
		{Op: OpConfigure, Positive: true},
		{Op: OpConfigureInitiator, Threshold: 4},
		{Op: OpQuery},
	}
	for _, m := range msgs {
		if err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := Decode(&buf); err != io.EOF {
		t.Fatalf("expected EOF after stream, got %v", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(opRaw uint8, positive, decision bool, tRaw, qRaw, rRaw uint16, code uint8) bool {
		ops := []Op{OpConfigure, OpConfigureInitiator, OpQuery, OpReboot, OpAck, OpQueryResult, OpError}
		m := Message{Op: ops[int(opRaw)%len(ops)]}
		switch m.Op {
		case OpConfigure:
			m.Positive = positive
		case OpConfigureInitiator:
			m.Threshold = int(tRaw)
		case OpQueryResult:
			m.Decision = decision
			m.Queries = int(qRaw)
			m.Rounds = int(rRaw)
		case OpError:
			m.Code = code
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			return false
		}
		got, err := Decode(&buf)
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(bytes.NewReader(data)) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSerialDecode: Decode never panics, and every frame it accepts
// re-encodes and decodes to the same Message.
func FuzzSerialDecode(f *testing.F) {
	for _, m := range []Message{
		{Op: OpConfigure, Positive: true},
		{Op: OpConfigureInitiator, Threshold: 513},
		{Op: OpQuery},
		{Op: OpQueryResult, Decision: true, Queries: 40, Rounds: 3},
		{Op: OpError, Code: CodeQueryFailed},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatalf("encode of decoded %+v: %v", m, err)
		}
		if got, err := Decode(&buf); err != nil || got != m {
			t.Fatalf("round trip of %+v: got %+v, %v", m, got, err)
		}
	})
}
