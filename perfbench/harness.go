package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// loopback serves one handler on a 127.0.0.1 listener.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
		close(l.done)
	}()
	return l, nil
}

// close stops the listener and every open connection and waits for Serve
// to return.
func (l *loopback) close() {
	_ = l.srv.Close()
	<-l.done
}

// newClient returns a client that keeps at most one connection, so each
// load goroutine owns exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// ops counts attempted and failed operations: every POST and GET the
// benchmark sends, and every correctness check (a miss counts as failed).
type ops struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	misses []string
}

func (o *ops) miss(format string, args ...any) {
	o.failed.Add(1)
	o.mu.Lock()
	o.misses = append(o.misses, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

// do sends one request and reads the whole response body. Any transport
// error or non-2xx status counts as a failed operation. A successful body
// is read into io.Discard's pooled buffers rather than a fresh slice, so
// the client's own garbage (a consensus body is hundreds of kB) does not
// drive the collector of the process the server runs in.
func (o *ops) do(c *http.Client, method, url, ctype string, body []byte) error {
	o.attempted.Add(1)
	err := send(c, method, url, ctype, body)
	if err != nil {
		o.failed.Add(1)
	}
	return err
}

func send(c *http.Client, method, url, ctype string, body []byte) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histQuantile estimates a quantile from the serve package's log₂ latency
// buckets (bucket b covers (base·2^(b-1), base·2^b], bucket 0 (0, base]),
// interpolating linearly inside the bucket. It returns milliseconds.
func histQuantile(counts []int64, base time.Duration, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen float64
	for b, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			hi := ms(base) * math.Pow(2, float64(b))
			lo := 0.0
			if b > 0 {
				lo = hi / 2
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return ms(base) * math.Pow(2, float64(len(counts)-1))
}

func addCounts(dst, src []int64) []int64 {
	if len(dst) < len(src) {
		dst = append(dst, make([]int64, len(src)-len(dst))...)
	}
	for i, c := range src {
		dst[i] += c
	}
	return dst
}
