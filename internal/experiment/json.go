package experiment

import (
	"encoding/json"

	"tcast/internal/stats"
)

// jsonTable is the stable on-disk schema for exported experiment data;
// downstream plotting scripts consume it.
type jsonTable struct {
	Title  string       `json:"title"`
	XLabel string       `json:"xLabel"`
	YLabel string       `json:"yLabel"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Name   string      `json:"name"`
	Points []jsonPoint `json:"points"`
}

type jsonPoint struct {
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Err float64 `json:"err,omitempty"`
	N   int     `json:"n,omitempty"`
}

// JSON serializes a table with a stable schema (indented, trailing
// newline).
func JSON(t *stats.Table) (string, error) {
	out := jsonTable{Title: t.Title, XLabel: t.XLabel, YLabel: t.YLabel}
	for _, s := range t.Series {
		js := jsonSeries{Name: s.Name, Points: make([]jsonPoint, 0, len(s.Points))}
		for _, p := range s.Points {
			js.Points = append(js.Points, jsonPoint{X: p.X, Y: p.Y, Err: p.Err, N: p.N})
		}
		out.Series = append(out.Series, js)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}
