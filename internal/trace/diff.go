package trace

import (
	"fmt"
	"strings"
)

// The differ pinpoints the first divergent span between two traces: the
// caller learns which experiment/trial/session/round the first difference
// sits in and which field moved.

// flatSpan is one span in preorder together with its ancestry path.
type flatSpan struct {
	path string
	span *Span
}

func flatten(t *Trace) []flatSpan {
	var out []flatSpan
	var stack []string
	var walk func(sp *Span)
	walk = func(sp *Span) {
		stack = append(stack, sp.Name)
		out = append(out, flatSpan{path: strings.Join(stack, " / "), span: sp})
		for _, c := range sp.Children {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

// spanDelta describes how two same-position spans differ; empty means
// they match.
func spanDelta(a, b *Span) string {
	switch {
	case a.Kind != b.Kind:
		return fmt.Sprintf("kind %s vs %s", a.Kind, b.Kind)
	case a.Name != b.Name:
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	case a.Start != b.Start:
		return fmt.Sprintf("start %d vs %d", a.Start, b.Start)
	case a.End != b.End:
		return fmt.Sprintf("end %d vs %d", a.End, b.End)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Sprintf("%d attrs vs %d", len(a.Attrs), len(b.Attrs))
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Sprintf("attr %s=%q vs %s=%q",
				a.Attrs[i].Key, a.Attrs[i].Value, b.Attrs[i].Key, b.Attrs[i].Value)
		}
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Sprintf("%d children vs %d", len(a.Children), len(b.Children))
	}
	return ""
}

// DiffResult reports the first divergence between two traces.
type DiffResult struct {
	// Identical is true when every span (and the metadata) matches.
	Identical bool
	// Index is the preorder position of the first divergent span, or the
	// length of the shorter trace when one is a prefix of the other.
	Index int
	// Path is the divergent span's ancestry (names joined by " / ").
	Path string
	// Detail says which field differs, or that a trace ended early.
	Detail string
}

// String renders the result for CLI output.
func (d DiffResult) String() string {
	if d.Identical {
		return "traces identical"
	}
	if d.Path == "" {
		return "traces differ: " + d.Detail
	}
	return fmt.Sprintf("first divergent span #%d at %q: %s", d.Index, d.Path, d.Detail)
}

// Diff compares two traces span by span in preorder and reports the first
// divergence.
func Diff(a, b *Trace) DiffResult {
	if d := attrsDelta(a.Meta, b.Meta); d != "" {
		return DiffResult{Detail: "metadata differs: " + d}
	}
	fa, fb := flatten(a), flatten(b)
	n := len(fa)
	if len(fb) < n {
		n = len(fb)
	}
	for i := 0; i < n; i++ {
		if fa[i].path != fb[i].path {
			return DiffResult{Index: i, Path: fa[i].path,
				Detail: fmt.Sprintf("position holds %q vs %q", fa[i].path, fb[i].path)}
		}
		if d := spanDelta(fa[i].span, fb[i].span); d != "" {
			return DiffResult{Index: i, Path: fa[i].path, Detail: d}
		}
	}
	if len(fa) != len(fb) {
		shorter, longer, which := fa, fb, "first"
		if len(fb) < len(fa) {
			shorter, longer, which = fb, fa, "second"
		}
		return DiffResult{Index: len(shorter), Path: longer[len(shorter)].path,
			Detail: fmt.Sprintf("%s trace ends after %d spans, other has %d", which, len(shorter), len(longer))}
	}
	return DiffResult{Identical: true, Index: len(fa)}
}

func attrsDelta(a, b []Attr) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s=%q vs %s=%q", a[i].Key, a[i].Value, b[i].Key, b[i].Value)
		}
	}
	return ""
}
