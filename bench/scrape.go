package main

import (
	"fmt"
	"strconv"
	"strings"

	"streambc/internal/obs"
)

// [S] metrics: the daemons' own /metrics, scraped by the writer immediately
// before and after the steady phase. The delta between the two scrapes is
// what the daemons themselves counted for exactly the steady updates, at no
// cost to the measured run beyond the two scrapes.

// sample is one exposition line with its label block taken apart.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics page. On the router it is the federated
// page: the router's own families plus every shard's under a shard label.
type scrape []sample

// parseScrape parses a Prometheus text exposition with the repository's own
// strict parser (the one the router's federation uses).
func parseScrape(body []byte) (scrape, error) {
	fams, err := obs.ParseExposition(body)
	if err != nil {
		return nil, err
	}
	var out scrape
	for _, f := range fams {
		for _, s := range f.Samples {
			v, err := strconv.ParseFloat(s.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("sample %s%s: %w", s.Name, s.Labels, err)
			}
			out = append(out, sample{name: s.Name, labels: parseLabels(s.Labels), value: v})
		}
	}
	return out, nil
}

// parseLabels takes a rendered label block (`{k="v",...}` or "") apart. The
// daemons' label values are route patterns, stage names and small integers:
// none contains a quote or a comma, so splitting on them is exact here.
func parseLabels(block string) map[string]string {
	block = strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	if block == "" {
		return nil
	}
	labels := make(map[string]string)
	for _, pair := range strings.Split(block, ",") {
		k, v, _ := strings.Cut(pair, "=")
		labels[k] = strings.Trim(v, `"`)
	}
	return labels
}

// sum adds up every series called name whose labels include all of the given
// key, value pairs. Labels not named — the federation's shard label above
// all — are summed over.
func (s scrape) sum(name string, kv ...string) float64 {
	total := 0.0
	for _, x := range s {
		if x.name == name && x.matches(kv) {
			total += x.value
		}
	}
	return total
}

// by returns the series called name (filtered like sum) keyed by one label.
func (s scrape) by(label, name string, kv ...string) map[string]float64 {
	out := make(map[string]float64)
	for _, x := range s {
		if x.name == name && x.matches(kv) {
			out[x.labels[label]] += x.value
		}
	}
	return out
}

func (x sample) matches(kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if x.labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// scrapeDelta answers sum and by for the difference after − before.
type scrapeDelta struct{ before, after scrape }

func (d scrapeDelta) sum(name string, kv ...string) float64 {
	return d.after.sum(name, kv...) - d.before.sum(name, kv...)
}

func (d scrapeDelta) by(label, name string, kv ...string) map[string]float64 {
	out := d.after.by(label, name, kv...)
	for k, v := range d.before.by(label, name, kv...) {
		out[k] -= v
	}
	return out
}

// ratio returns num/den, or 0 when den is 0 (an idle layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
