package harness

import "encoding/json"

// Scrape is one reading of the server's /api/stats counters. The end-to-end
// driver takes one either side of the timed window; the differences are the
// per-layer numbers that need no change to the program.
type Scrape []struct {
	Name   string `json:"name"`
	Series []struct {
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
		Count  int64             `json:"count"`
		Sum    float64           `json:"sum"`
	} `json:"series"`
}

// ParseScrape decodes an /api/stats body.
func ParseScrape(body []byte) (Scrape, error) {
	var s Scrape
	err := json.Unmarshal(body, &s)
	return s, err
}

// Total sums the values of the named family's series whose labels include
// every given key=value pair.
func (s Scrape) Total(name string, labels ...string) float64 {
	var sum float64
	s.each(name, labels, func(v float64, _ int64, _ float64) { sum += v })
	return sum
}

// Hist sums the observation counts and sums of the named histogram family.
func (s Scrape) Hist(name string, labels ...string) (count int64, sum float64) {
	s.each(name, labels, func(_ float64, c int64, x float64) { count += c; sum += x })
	return count, sum
}

func (s Scrape) each(name string, labels []string, fn func(float64, int64, float64)) {
	for _, m := range s {
		if m.Name != name {
			continue
		}
	series:
		for _, se := range m.Series {
			for i := 0; i+1 < len(labels); i += 2 {
				if se.Labels[labels[i]] != labels[i+1] {
					continue series
				}
			}
			fn(se.Value, se.Count, se.Sum)
		}
	}
}

// Ratio returns a/(a+b), or 0 when both are 0.
func Ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
