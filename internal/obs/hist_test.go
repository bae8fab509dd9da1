package obs

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestBucketBounds pins the bucket family every exporter and reader shares:
// bucket 0 is [0, 50µs], bucket b is (50µs·2^(b-1), 50µs·2^b], and the last
// bucket takes everything beyond.
func TestBucketBounds(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0}, {0, 0}, {base, 0}, {base + 1, 1}, {2 * base, 1},
		{2*base + 1, 2}, {time.Second, 15}, {1000 * time.Hour, buckets - 1},
	} {
		var h Hist
		h.Observe(c.d)
		if got := h.Export().Log2Buckets; got[c.want] != 1 {
			t.Errorf("%v landed in %v, want bucket %d", c.d, got, c.want)
		}
	}
}

// TestAddSinceExport checks the cumulative-counter arithmetic reports rely
// on: an export survives JSON, adding tenants sums them, and Since recovers
// exactly the samples observed between two readings.
func TestAddSinceExport(t *testing.T) {
	var a, b Hist
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	start := a
	for i := 1; i <= 50; i++ {
		b.Observe(time.Duration(i) * 10 * time.Millisecond)
	}
	a.Add(&b)

	raw, err := json.Marshal(a.Export())
	if err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if got := e.Hist(); got != a {
		t.Fatalf("JSON round trip changed the histogram:\n got %+v\nwant %+v", got, a)
	}
	if a.n != 150 || a.max != 500*time.Millisecond {
		t.Fatalf("after Add: count %d max %v, want 150 and 500ms", a.n, a.max)
	}
	if d := a.Since(&start); d != b {
		t.Fatalf("Since recovered %+v, want %+v", d, b)
	}
}

// TestSinceClampsOnReset: a server restart resets the counters, so the
// later reading is smaller than the earlier one. Nothing may go negative.
func TestSinceClampsOnReset(t *testing.T) {
	var before, after Hist
	for i := 0; i < 10; i++ {
		before.Observe(time.Second)
	}
	after.Observe(time.Millisecond)
	d := after.Since(&before)
	for b, c := range d.counts {
		if c < 0 {
			t.Fatalf("bucket %d went negative: %d", b, c)
		}
	}
	if d.n != after.n || d.sum != after.sum || d.max != after.max {
		t.Fatalf("reset window: %+v, want count/sum/max of the later reading", d)
	}
	if s := d.Summary(); s.Count != 1 || s.P50Ms <= 0 || s.P50Ms > 1 {
		t.Fatalf("reset window summary %+v, want the one 1ms sample", s)
	}
	if !reflect.DeepEqual((&Hist{}).Summary(), HistSummary{}) {
		t.Fatal("empty histogram must digest to the zero summary")
	}
}
