package experiment

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	tab := makeTable()
	out, err := JSON(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back jsonTable
	if err := json.Unmarshal([]byte(out), &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != tab.Title || back.XLabel != tab.XLabel || back.YLabel != tab.YLabel {
		t.Fatalf("metadata lost: %+v", back)
	}
	if len(back.Series) != len(tab.Series) {
		t.Fatalf("series count %d, want %d", len(back.Series), len(tab.Series))
	}
	for i, s := range tab.Series {
		bs := back.Series[i]
		if bs.Name != s.Name || len(bs.Points) != len(s.Points) {
			t.Fatalf("series %d mismatched", i)
		}
		for j, p := range s.Points {
			if bp := bs.Points[j]; bp != (jsonPoint{X: p.X, Y: p.Y, Err: p.Err, N: p.N}) {
				t.Fatalf("point %d/%d = %+v, want %+v", i, j, bp, p)
			}
		}
	}
}

func TestJSONSchemaFields(t *testing.T) {
	out, err := JSON(makeTable())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"title"`, `"xLabel"`, `"yLabel"`, `"series"`, `"points"`, `"name"`, `"x"`, `"y"`} {
		if !strings.Contains(out, key) {
			t.Errorf("schema key %s missing:\n%s", key, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("no trailing newline")
	}
}
