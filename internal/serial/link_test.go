package serial

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"tcast/internal/mote"
	"tcast/internal/radio"
	"tcast/internal/rng"
)

// bootWiredLab builds a 4-mote testbed whose initiator is reachable over
// a real byte stream (net.Pipe); the participants are configured
// directly.
func bootWiredLab(t *testing.T) (iniClient *Client, parts []*mote.Participant) {
	t.Helper()
	root := rng.New(7)
	med := radio.NewMedium(radio.Config{}, root.Split(1))
	parts = make([]*mote.Participant, 4)
	for i := range parts {
		parts[i] = mote.NewParticipant(i)
	}
	ini := mote.NewInitiator(1<<16, med, parts, root.Split(2))

	iniCtrl, iniMote := net.Pipe()
	go func() { _ = ServeInitiator(iniMote, ini) }()

	t.Cleanup(func() { iniCtrl.Close() })
	return NewClient(iniCtrl), parts
}

func TestWiredQuerySession(t *testing.T) {
	iniClient, parts := bootWiredLab(t)

	// Unconfigured query must come back as a protocol-level error.
	if _, _, _, err := iniClient.Query(); err == nil {
		t.Fatal("unconfigured query succeeded over the wire")
	}

	// Participants 0, 1 and 2 positive, threshold 3 over the wire.
	for _, p := range parts[:3] {
		p.Configure(true)
	}
	if err := iniClient.ConfigureInitiator(3); err != nil {
		t.Fatal(err)
	}

	decision, queries, rounds, err := iniClient.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !decision {
		t.Fatal("3 positives with t=3 decided false")
	}
	if queries <= 0 || rounds <= 0 {
		t.Fatalf("counters not reported: q=%d r=%d", queries, rounds)
	}

	// Reboot a participant and re-query: it forgets its predicate, so
	// the threshold fails.
	parts[0].Reboot()
	decision, _, _, err = iniClient.Query()
	if err != nil {
		t.Fatal(err)
	}
	if decision {
		t.Fatal("rebooted participant still counted")
	}
}

// TestWiredMiniCampaign drives a small Section IV-D-style campaign with
// the initiator behind a serial link: the controller sets the threshold
// and queries through the protocol.
func TestWiredMiniCampaign(t *testing.T) {
	const n = 6
	root := rng.New(99)
	med := radio.NewMedium(radio.Config{}, root.Split(1))
	parts := make([]*mote.Participant, n)
	for i := range parts {
		parts[i] = mote.NewParticipant(i)
	}
	ini := mote.NewInitiator(1<<16, med, parts, root.Split(2))
	iniCtrl, iniMote := net.Pipe()
	go func() { _ = ServeInitiator(iniMote, ini) }()
	iniClient := NewClient(iniCtrl)
	t.Cleanup(func() { iniCtrl.Close() })

	const threshold = 2
	for x := 0; x <= n; x++ {
		for i, p := range parts {
			p.Configure(i < x)
		}
		if err := iniClient.ConfigureInitiator(threshold); err != nil {
			t.Fatal(err)
		}
		decision, queries, _, err := iniClient.Query()
		if err != nil {
			t.Fatal(err)
		}
		if decision != (x >= threshold) {
			t.Fatalf("x=%d: wired campaign decision %v", x, decision)
		}
		if queries <= 0 {
			t.Fatalf("x=%d: no queries reported", x)
		}
	}
}

func TestWiredRebootInitiator(t *testing.T) {
	iniClient, _ := bootWiredLab(t)
	if err := iniClient.ConfigureInitiator(1); err != nil {
		t.Fatal(err)
	}
	if err := iniClient.expectAck(Message{Op: OpReboot}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := iniClient.Query(); err == nil {
		t.Fatal("query after reboot succeeded")
	}
}

func TestServerRejectsWrongCommands(t *testing.T) {
	iniClient, _ := bootWiredLab(t)
	// A participant command to the initiator comes back as a protocol
	// error, not a hang.
	if err := iniClient.expectAck(Message{Op: OpConfigure, Positive: true}); err == nil {
		t.Fatal("initiator accepted a participant-only command")
	}
}

func TestClientTimeoutOnSilentMote(t *testing.T) {
	ctrl, moteSide := net.Pipe()
	defer ctrl.Close()
	// The "mote" drains commands but never replies — a wedged firmware.
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := moteSide.Read(buf); err != nil {
				return
			}
		}
	}()
	c := NewClient(ctrl)
	c.Timeout = 20 * time.Millisecond
	start := time.Now()
	err := c.ConfigureInitiator(1)
	if err == nil {
		t.Fatal("expected a timeout error from a silent mote")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("round trip blocked %v despite 20ms timeout", waited)
	}
	moteSide.Close()
}

func TestClientTimeoutClearsDeadline(t *testing.T) {
	c, _ := bootWiredLab(t)
	c.Timeout = time.Second
	// Two sequential round trips: if the deadline from the first were
	// left armed, a later slow reply would spuriously expire. Mostly this
	// pins that a served round trip under Timeout works at all.
	for i := 0; i < 2; i++ {
		if err := c.ConfigureInitiator(1); err != nil {
			t.Fatalf("round trip %d under timeout: %v", i, err)
		}
	}
}

func TestClientTimeoutRequiresDeadline(t *testing.T) {
	// A plain buffer has no SetReadDeadline: configuring Timeout must
	// fail loudly instead of silently waiting forever.
	var buf bytes.Buffer
	c := NewClient(&buf)
	c.Timeout = time.Millisecond
	err := c.ConfigureInitiator(1)
	if err == nil || !strings.Contains(err.Error(), "read deadline") {
		t.Fatalf("err = %v, want a no-read-deadline error", err)
	}
}
