package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// JSONL codec for traces: line one is a header carrying the schema
// version and the trace metadata, then one line per span in preorder.
// Encode writes each record straight into one reused buffer in a fixed
// field order, numbers through strconv and strings as encoding/json
// would quote them, so encoding the same trace always produces the same
// bytes — the property the acceptance check "same seed ⇒ byte-identical
// trace files" rests on. Decode reads the records back through the
// struct types below, whose tags name the same fields.

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

// encodeChunk is how many encoded bytes Encode gathers before writing
// them to its writer.
const encodeChunk = 32 << 10

// encoder appends JSONL records to buf and hands buf to w in chunks.
type encoder struct {
	w   io.Writer
	buf []byte
	id  int
}

// Encode writes the trace as JSONL: the bytes of encoding/json's Encoder
// over header and spanRecord, one record per line.
func Encode(w io.Writer, t *Trace) error {
	// Twice the chunk, so the record that crosses it still fits.
	e := encoder{w: w, buf: make([]byte, 0, 2*encodeChunk)}
	b := append(e.buf, `{"schema":"`+schemaName+`","version":`...)
	b = strconv.AppendInt(b, Version, 10)
	b = append(b, `,"unit":"slot"`...)
	b = appendAttrs(b, `,"meta":`, t.Meta)
	e.buf = append(b, "}\n"...)
	for _, r := range t.Roots {
		if err := e.span(-1, r); err != nil {
			return err
		}
	}
	return e.write()
}

// span encodes sp under parent, then its subtree in preorder.
func (e *encoder) span(parent int, sp *Span) error {
	self := e.id
	e.id++
	b := append(e.buf, `{"id":`...)
	b = strconv.AppendInt(b, int64(self), 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, int64(parent), 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, sp.Kind.String())
	b = append(b, `,"name":`...)
	b = appendString(b, sp.Name)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, sp.Start, 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, sp.End, 10)
	b = appendAttrs(b, `,"attrs":`, sp.Attrs)
	e.buf = append(b, "}\n"...)
	if len(e.buf) >= encodeChunk {
		if err := e.write(); err != nil {
			return err
		}
	}
	for _, c := range sp.Children {
		if err := e.span(self, c); err != nil {
			return err
		}
	}
	return nil
}

// write hands the gathered bytes to w and empties the buffer.
func (e *encoder) write() error {
	n, err := e.w.Write(e.buf)
	if err == nil && n < len(e.buf) {
		err = io.ErrShortWrite
	}
	e.buf = e.buf[:0]
	return err
}

// appendAttrs appends key and the attrs as a JSON array, or nothing when
// attrs is empty, as omitempty does.
func appendAttrs(b []byte, key string, attrs []Attr) []byte {
	if len(attrs) == 0 {
		return b
	}
	b = append(b, key...)
	b = append(b, '[')
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"k":`...)
		b = appendString(b, a.Key)
		b = append(b, `,"v":`...)
		b = appendString(b, a.Value)
		b = append(b, '}')
	}
	return append(b, ']')
}

// plainJSON marks the bytes encoding/json copies into a quoted string
// unchanged: printable ASCII except the quote, the backslash and the
// HTML-escaped <, > and &.
var plainJSON = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// appendString appends s quoted as encoding/json quotes it. Strings of
// plain bytes, every name and attr the program writes, are copied as
// they are; any other string goes through json.Marshal, so escapes,
// invalid UTF-8 and U+2028/U+2029 come out exactly as it writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			// Marshal of a string cannot fail.
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WriteFile encodes the trace into path, streaming Encode's chunks to
// the file so a trace of any size costs one encode buffer.
func WriteFile(path string, t *Trace) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := Encode(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
