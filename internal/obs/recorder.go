package obs

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FlightRecorder keeps the last Size events in a ring buffer and, when
// an anomaly event arrives, dumps the ring to disk — the black box that
// makes one wrong verdict in a million-trial sweep diagnosable without
// recording everything. Dumps are capped (MaxDumps) so a systematically
// failing run produces a handful of exhibits, not a disk full of them;
// the ring keeps recording after the cap so Snapshot stays live.
//
// Dump format (one file per anomaly, FLIGHT_<n>.jsonl in Dir): a header
// line {"schema":"tcast-flight","version":1,...} followed by one JSON
// event per line in arrival order, the triggering anomaly last.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	full  bool
	dir   string
	max   int
	dumps []string
	// dumpErr keeps the first dump failure; recording carries on.
	dumpErr error
}

// FlightSchema identifies the dump header; bump FlightVersion on
// breaking shape changes.
const (
	FlightSchema  = "tcast-flight"
	FlightVersion = 1
)

// DefaultFlightSize is the ring capacity when the caller passes none.
const DefaultFlightSize = 512

// DefaultMaxDumps bounds how many anomaly dumps one run writes.
const DefaultMaxDumps = 8

// NewFlightRecorder returns a recorder ringing the last size events
// (DefaultFlightSize when size <= 0) and dumping into dir. An empty dir
// disables dumping; the ring still records for Snapshot.
func NewFlightRecorder(size int, dir string) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{ring: make([]Event, size), dir: dir, max: DefaultMaxDumps}
}

// OnEvent implements Sink: record the event, and dump the ring when it
// is an anomaly.
func (f *FlightRecorder) OnEvent(e Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring[f.next] = e
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
	if e.Kind == KindAnomaly && f.dir != "" && len(f.dumps) < f.max {
		if err := f.dump(e); err != nil && f.dumpErr == nil {
			f.dumpErr = err
		}
	}
}

// snapshotLocked returns the ring contents in arrival order; callers
// hold f.mu.
func (f *FlightRecorder) snapshotLocked() []Event {
	if !f.full {
		return append([]Event(nil), f.ring[:f.next]...)
	}
	out := make([]Event, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	out = append(out, f.ring[:f.next]...)
	return out
}

// dump writes the ring to the next FLIGHT_<n>.jsonl; callers hold f.mu.
func (f *FlightRecorder) dump(trigger Event) error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(f.dir, fmt.Sprintf("FLIGHT_%d.jsonl", len(f.dumps)+1))
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	fmt.Fprintf(w, `{"schema":%q,"version":%d,"trigger_seq":%d,"trigger":%q,"events":%d}`+"\n",
		FlightSchema, FlightVersion, trigger.Seq, trigger.Outcome, f.count())
	for _, e := range f.snapshotLocked() {
		line, err := EncodeEvent(e)
		if err != nil {
			file.Close()
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	f.dumps = append(f.dumps, path)
	return nil
}

// count returns the number of ringed events; callers hold f.mu.
func (f *FlightRecorder) count() int {
	if f.full {
		return len(f.ring)
	}
	return f.next
}

// Dumps lists the dump files written so far, in trigger order.
func (f *FlightRecorder) Dumps() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.dumps...)
}

// Err returns the first dump failure, if any — recording never stops on
// one, so surfacing it at exit is the caller's job.
func (f *FlightRecorder) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpErr
}
