package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// JSONL codec for traces: line one is a header carrying the schema
// version and the trace metadata, then one line per span in preorder.
// Every field is written through ordered struct marshalling and every
// number through strconv-backed attr formatting, so encoding the same
// trace always produces the same bytes — the property the acceptance
// check "same seed ⇒ byte-identical trace files" rests on.

// Version is the trace schema version written into the header line.
// Decode rejects files whose version it does not know.
const Version = 1

// header is the first JSONL line.
type header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Unit    string `json:"unit"`
	Meta    []Attr `json:"meta,omitempty"`
}

const schemaName = "tcast-trace"

// spanRecord is one encoded span. Parent is the preorder ID of the parent
// span, -1 for roots. In preorder a span's parent is the previous span or
// one of its ancestors, which Decode enforces, so a decoded file
// re-encodes with the same span ids.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Encode writes the trace as JSONL.
func Encode(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Schema: schemaName, Version: Version, Unit: "slot", Meta: t.Meta}); err != nil {
		return err
	}
	id := 0
	var walk func(parent int, sp *Span) error
	walk = func(parent int, sp *Span) error {
		rec := spanRecord{
			ID:     id,
			Parent: parent,
			Kind:   sp.Kind.String(),
			Name:   sp.Name,
			Start:  sp.Start,
			End:    sp.End,
			Attrs:  sp.Attrs,
		}
		self := id
		id++
		if err := enc.Encode(rec); err != nil {
			return err
		}
		for _, c := range sp.Children {
			if err := walk(self, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(-1, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeBytes renders the trace to a byte slice.
func EncodeBytes(t *Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile encodes the trace into path.
func WriteFile(path string, t *Trace) error {
	data, err := EncodeBytes(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Decode parses a JSONL trace, validating the schema version and the
// preorder parent links.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty trace file")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if h.Schema != schemaName {
		return nil, fmt.Errorf("trace: schema %q is not %q", h.Schema, schemaName)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("trace: version %d not supported (want %d)", h.Version, Version)
	}
	t := &Trace{Meta: h.Meta}
	var spans []*Span
	// open holds the ids of the previous span and its ancestors, root
	// first: the only spans a preorder successor may name as parent.
	var open []int
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec spanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if rec.ID != len(spans) {
			return nil, fmt.Errorf("trace: line %d: span id %d out of preorder (want %d)", line, rec.ID, len(spans))
		}
		kind, err := ParseSpanKind(rec.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		sp := &Span{Kind: kind, Name: rec.Name, Start: rec.Start, End: rec.End, Attrs: rec.Attrs}
		for len(open) > 0 && open[len(open)-1] != rec.Parent {
			open = open[:len(open)-1]
		}
		switch {
		case rec.Parent == -1:
			t.Roots = append(t.Roots, sp)
		case len(open) > 0:
			parent := spans[rec.Parent]
			parent.Children = append(parent.Children, sp)
		default:
			return nil, fmt.Errorf("trace: line %d: parent %d of span %d is not the previous span or one of its ancestors", line, rec.Parent, rec.ID)
		}
		spans = append(spans, sp)
		open = append(open, rec.ID)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
