// Package obs holds the serving stack's one latency histogram. The daemon's
// publish and append→durable histograms and the load generator's
// client-side histograms are all the same log₂ family, so a report can add
// them across tenants and diff them phase over phase bucket for bucket.
package obs

import "time"

// base is the upper bound of the first bucket; each later bucket doubles
// it, so the 32 buckets span 50µs … ~30h.
const (
	base    = 50 * time.Microsecond
	buckets = 32
)

// Hist is a cumulative log₂ latency histogram: bucket 0 covers [0, base],
// bucket b covers (base·2^(b-1), base·2^b], and the last bucket is
// open-ended. The zero value is empty. A Hist carries no lock: its owner
// guards it, so a caller recording many samples at once (the group-commit
// leader, once per cohort) locks once for all of them.
type Hist struct {
	counts [buckets]int64
	n      int64
	sum    time.Duration
	max    time.Duration
}

// Observe records one latency; negative durations count as zero.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := 0
	for bound := base; b < buckets-1 && d > bound; bound *= 2 {
		b++
	}
	h.counts[b]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Add folds o into h bucket for bucket; the max is the larger of the two.
func (h *Hist) Add(o *Hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// Since returns what h accumulated after start, an earlier reading of the
// same cumulative counters. A counter reset in between (a restarted server)
// shows as negative differences: buckets clamp at zero, count and sum fall
// back to h's own, and the max is h's, which is cumulative.
func (h *Hist) Since(start *Hist) Hist {
	d := Hist{n: h.n - start.n, sum: h.sum - start.sum, max: h.max}
	for b := range d.counts {
		d.counts[b] = max(h.counts[b]-start.counts[b], 0)
	}
	if d.n < 0 {
		d.n = h.n
	}
	if d.sum < 0 {
		d.sum = h.sum
	}
	return d
}

// quantile estimates the q-quantile (0 < q < 1) by locating the covering
// bucket and taking the midpoint of its range, capped at the max.
func (h *Hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	target := min(int64(q*float64(h.n)), h.n-1)
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen > target {
			upper := min(base<<uint(b), h.max)
			lower := time.Duration(0)
			if b > 0 {
				lower = base << uint(b-1)
			}
			return lower + (upper-lower)/2
		}
	}
	return h.max
}

// HistSummary is the JSON-ready digest of a latency histogram.
type HistSummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary digests h into mean, p50/p90/p99 and max.
func (h *Hist) Summary() HistSummary {
	s := HistSummary{Count: h.n, MaxMs: ms(h.max)}
	if h.n > 0 {
		s.MeanMs = ms(h.sum / time.Duration(h.n))
		s.P50Ms = ms(h.quantile(0.50))
		s.P90Ms = ms(h.quantile(0.90))
		s.P99Ms = ms(h.quantile(0.99))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Export is the JSON form of a Hist: the raw cumulative counters, which a
// reader can add across sources and diff between two readings.
type Export struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MaxNs int64 `json:"max_ns"`
	// Log2Buckets counts samples per bucket: bucket b covers
	// (50µs·2^(b-1), 50µs·2^b], with bucket 0 covering (0, 50µs].
	Log2Buckets []int64 `json:"log2_buckets"`
}

// Export returns h's counters in their JSON form.
func (h *Hist) Export() Export {
	return Export{
		Count:       h.n,
		SumNs:       int64(h.sum),
		MaxNs:       int64(h.max),
		Log2Buckets: append([]int64(nil), h.counts[:]...),
	}
}

// Hist rebuilds the histogram e was exported from. Buckets past the last
// one fold into it.
func (e Export) Hist() Hist {
	h := Hist{n: e.Count, sum: time.Duration(e.SumNs), max: time.Duration(e.MaxNs)}
	for b, c := range e.Log2Buckets {
		h.counts[min(b, buckets-1)] += c
	}
	return h
}
