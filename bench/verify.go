package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"streambc/internal/bc"
	"streambc/internal/graph"
)

// scoreDump is everything a front end serves about its scores: the raw
// bodies (compared byte for byte across a restart) and their decoded form
// (compared with a from-scratch Brandes run).
type scoreDump struct {
	verticesBody, edgesBody []byte

	vertices []struct {
		Vertex int     `json:"vertex"`
		Score  float64 `json:"score"`
	}
	edges []struct {
		U     int     `json:"u"`
		V     int     `json:"v"`
		Score float64 `json:"score"`
	}
	stats struct {
		Applied   int `json:"updates_applied"`
		Rejected  int `json:"updates_rejected"`
		Coalesced int `json:"updates_coalesced"` // absent on the router, which never coalesces
		WALSeq    int `json:"wal_sequence"`      // absent without a write-ahead log
	}
}

func getBody(ctl *http.Client, url string) ([]byte, error) {
	resp, err := ctl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// fetchDump reads every vertex and edge score and the counters from base.
// k is clamped by the server, so one large value asks for everything.
func fetchDump(ctl *http.Client, base string) (*scoreDump, error) {
	d := &scoreDump{}
	var err error
	if d.verticesBody, err = getBody(ctl, base+"/v1/top/vertices?k=1000000000"); err != nil {
		return nil, err
	}
	if d.edgesBody, err = getBody(ctl, base+"/v1/top/edges?k=1000000000"); err != nil {
		return nil, err
	}
	statsBody, err := getBody(ctl, base+"/v1/stats")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(d.verticesBody, &struct {
		Vertices any `json:"vertices"`
	}{Vertices: &d.vertices}); err != nil {
		return nil, fmt.Errorf("decoding vertex dump: %w", err)
	}
	if err := json.Unmarshal(d.edgesBody, &struct {
		Edges any `json:"edges"`
	}{Edges: &d.edges}); err != nil {
		return nil, fmt.Errorf("decoding edge dump: %w", err)
	}
	if err := json.Unmarshal(statsBody, &d.stats); err != nil {
		return nil, fmt.Errorf("decoding stats: %w", err)
	}
	return d, nil
}

// sameScores reports whether two dumps serve byte-identical scores.
func (d *scoreDump) sameScores(o *scoreDump) bool {
	return bytes.Equal(d.verticesBody, o.verticesBody) && bytes.Equal(d.edgesBody, o.edgesBody)
}

// relErr is |got − want| relative to max(1, |want|): betweenness scores are
// zero on leaves, so a purely relative error is undefined there.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// maxRelErr compares the dump with ref, a from-scratch result on the
// harness's own copy of the final graph. A vertex or edge present on one
// side only is an error, not a large number.
func (d *scoreDump) maxRelErr(ref *bc.Result) (float64, error) {
	if len(d.vertices) != len(ref.VBC) {
		return 0, fmt.Errorf("served %d vertices, reference has %d", len(d.vertices), len(ref.VBC))
	}
	if len(d.edges) != len(ref.EBC) {
		return 0, fmt.Errorf("served %d edges, reference has %d", len(d.edges), len(ref.EBC))
	}
	worst := 0.0
	for _, v := range d.vertices {
		if v.Vertex < 0 || v.Vertex >= len(ref.VBC) {
			return 0, fmt.Errorf("served vertex %d is out of range", v.Vertex)
		}
		worst = math.Max(worst, relErr(v.Score, ref.VBC[v.Vertex]))
	}
	for _, e := range d.edges {
		want, ok := ref.EBC[graph.Edge{U: e.U, V: e.V}.Canonical()]
		if !ok {
			return 0, fmt.Errorf("served edge (%d,%d) is not in the reference graph", e.U, e.V)
		}
		worst = math.Max(worst, relErr(e.Score, want))
	}
	return worst, nil
}
