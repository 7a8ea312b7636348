package blobclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shedThenServe 503s (with the given Retry-After header, "" for none) the
// first n requests, then serves normally.
func shedThenServe(n int, retryAfter string, h http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, "shard busy", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}))
	return ts, &calls
}

// TestRetryHonorsRetryAfterOn503: a shed GET is retried after the hinted
// delay and succeeds without surfacing the 503.
func TestRetryHonorsRetryAfterOn503(t *testing.T) {
	ts, calls := shedThenServe(2, "1", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "content")
	})
	defer ts.Close()
	// Cap the sleeps well under the 1s hint so the test stays fast: the
	// hint is honored but never beyond the policy max.
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithRetry(4, 5*time.Millisecond, 20*time.Millisecond))
	start := time.Now()
	got, _, err := c.Get(context.Background(), "r", "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "content" {
		t.Fatalf("got %q", got)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 sheds + success)", n)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("retries did not back off (elapsed %v)", elapsed)
	}
}

// TestRetryReplaysPutBody: the in-memory PUT body is rewound for each
// retry — the server must receive the full body on the attempt that
// succeeds.
func TestRetryReplaysPutBody(t *testing.T) {
	ts, calls := shedThenServe(1, "", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) != "hello world" {
			http.Error(w, "short body: "+string(body), http.StatusBadRequest)
			return
		}
		w.Header().Set("ETag", `"abc"`)
		w.WriteHeader(http.StatusCreated)
	})
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithRetry(3, time.Millisecond, 10*time.Millisecond))
	etag, err := c.Put(context.Background(), "r", "k", []byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	if etag != "abc" || calls.Load() != 2 {
		t.Fatalf("etag %q after %d calls", etag, calls.Load())
	}
}

// TestNoRetryForUnreplayableBody: an arbitrary stream cannot be rewound;
// the client must fail fast with the 503 rather than replay half a body.
func TestNoRetryForUnreplayableBody(t *testing.T) {
	ts, calls := shedThenServe(1, "", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
	})
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithRetry(5, time.Millisecond, 10*time.Millisecond))
	// io.MultiReader hides the strings.Reader, so net/http cannot set
	// GetBody and the request is not replayable.
	_, err := c.PutReader(context.Background(), "r", "k", io.MultiReader(strings.NewReader("x")), -1)
	if !IsOverloaded(err) {
		t.Fatalf("err = %v, want 503 passthrough", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("unreplayable request was retried (%d calls)", n)
	}
}

// TestRetryDisabledByDefault: without WithRetry the first 503 surfaces.
func TestRetryDisabledByDefault(t *testing.T) {
	ts, calls := shedThenServe(1, "", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "late")
	})
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	if _, _, err := c.Get(context.Background(), "r", "k"); !IsOverloaded(err) {
		t.Fatalf("err = %v, want 503", err)
	}
	if calls.Load() != 1 {
		t.Fatal("default client retried")
	}
}

// TestRetryGivesUpAfterBudget: persistent 503 surfaces after the
// configured attempts.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	ts, calls := shedThenServe(1000, "", nil)
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithRetry(3, time.Millisecond, 5*time.Millisecond))
	if _, _, err := c.Get(context.Background(), "r", "k"); !IsOverloaded(err) {
		t.Fatalf("err = %v, want 503", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want exactly the 3-attempt budget", n)
	}
}

// TestRetrySleepRespectsContext: cancelling mid-backoff aborts promptly.
func TestRetrySleepRespectsContext(t *testing.T) {
	ts, _ := shedThenServe(1000, "30", nil) // hinted 30s sleeps, capped by max
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithRetry(10, time.Second, time.Hour))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Get(ctx, "r", "k")
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation not honored in backoff sleep (%v)", time.Since(start))
	}
}

// TestReadReplicaRouting: with replicas configured, GETs hit a replica
// first; writes still go to the primary.
func TestReadReplicaRouting(t *testing.T) {
	var primaryGets, replicaGets atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			primaryGets.Add(1)
		}
		if r.Method == http.MethodPut {
			w.Header().Set("ETag", `"abc"`)
			w.WriteHeader(http.StatusCreated)
			return
		}
		io.WriteString(w, "primary")
	}))
	defer primary.Close()
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replicaGets.Add(1)
		w.Header().Set("X-Replica-Applied-LSN", "7")
		io.WriteString(w, "replica")
	}))
	defer replica.Close()

	c := New(primary.URL, WithHTTPClient(primary.Client()), WithReadReplicas(replica.URL))
	got, _, err := c.Get(context.Background(), "r", "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "replica" {
		t.Fatalf("got %q, want the replica's content", got)
	}
	if _, err := c.Put(context.Background(), "r", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if primaryGets.Load() != 0 || replicaGets.Load() != 1 {
		t.Fatalf("primary GETs %d, replica GETs %d; want 0 and 1",
			primaryGets.Load(), replicaGets.Load())
	}
}

// TestReadReplicaFallback: replica staleness sheds (503), misses (404),
// and misdirections (421) all fall back to the primary transparently.
func TestReadReplicaFallback(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "fresh")
	}))
	defer primary.Close()
	for _, status := range []int{
		http.StatusServiceUnavailable,
		http.StatusNotFound,
		http.StatusMisdirectedRequest,
	} {
		replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "cannot serve", status)
		}))
		c := New(primary.URL, WithHTTPClient(primary.Client()), WithReadReplicas(replica.URL))
		got, _, err := c.Get(context.Background(), "r", "k")
		replica.Close()
		if err != nil {
			t.Fatalf("replica status %d: %v", status, err)
		}
		if string(got) != "fresh" {
			t.Fatalf("replica status %d: got %q, want primary fallback", status, got)
		}
	}
}

// TestReadReplicaRoundRobin: successive reads rotate across replicas.
func TestReadReplicaRoundRobin(t *testing.T) {
	var hits [2]atomic.Int64
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			io.WriteString(w, "ok")
		}))
	}
	r0, r1 := mk(0), mk(1)
	defer r0.Close()
	defer r1.Close()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("primary should not see reads")
	}))
	defer primary.Close()
	c := New(primary.URL, WithHTTPClient(primary.Client()), WithReadReplicas(r0.URL, r1.URL))
	for i := 0; i < 4; i++ {
		if _, _, err := c.Get(context.Background(), "r", "k"); err != nil {
			t.Fatal(err)
		}
	}
	if hits[0].Load() != 2 || hits[1].Load() != 2 {
		t.Fatalf("replica hits %d/%d, want 2/2", hits[0].Load(), hits[1].Load())
	}
}

// TestWithTimeout: a server that stalls past the configured timeout
// surfaces a client-side error instead of hanging.
func TestWithTimeout(t *testing.T) {
	blocked := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer func() { close(blocked); ts.Close() }()
	c := New(ts.URL, WithHTTPClient(ts.Client()), WithTimeout(50*time.Millisecond))
	start := time.Now()
	if _, _, err := c.Get(context.Background(), "r", "k"); err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout not enforced (%v)", time.Since(start))
	}
}

// lengthRecorder records the Content-Length of every response the client
// receives (-1 when the body length is unknown).
type lengthRecorder struct {
	rt      http.RoundTripper
	lengths []int64
}

func (l *lengthRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.rt.RoundTrip(req)
	if err == nil {
		l.lengths = append(l.lengths, resp.ContentLength)
	}
	return resp, err
}

// TestGetChunkedBody: a response without Content-Length (chunked) is read
// whole through the growing fallback.
func TestGetChunkedBody(t *testing.T) {
	content := bytes.Repeat([]byte("0123456789abcdef"), 16<<10) // 256 KiB
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for part := content; len(part) > 0; part = part[64<<10:] {
			w.Write(part[:64<<10])
			w.(http.Flusher).Flush() // no declared length: chunked
		}
	}))
	defer ts.Close()
	rec := &lengthRecorder{rt: ts.Client().Transport}
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: rec}))
	got, _, err := c.Get(context.Background(), "r", "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("chunked GET returned %d bytes, want the %d sent", len(got), len(content))
	}
	got, notModified, err := c.GetIfNoneMatch(context.Background(), "r", "k", "stale")
	if err != nil || notModified || !bytes.Equal(got, content) {
		t.Fatalf("chunked conditional GET: notModified=%v err=%v, %d bytes", notModified, err, len(got))
	}
	if !reflect.DeepEqual(rec.lengths, []int64{-1, -1}) {
		t.Fatalf("response lengths %v, want both unknown (chunked)", rec.lengths)
	}
}

// rawServer answers every request with a hand-written response head that
// declares length bytes of body, then sends body and closes the
// connection — a server that breaks off mid-body.
func rawServer(t *testing.T, status string, length int64, body []byte) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 %s\r\nContent-Length: %d\r\n\r\n", status, length)
		buf.Write(body)
		buf.Flush()
	}))
}

// TestGetShortBodyFails: a body that ends before its declared length is an
// io.ErrUnexpectedEOF, never a zero-padded buffer.
func TestGetShortBodyFails(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 1000)
	for _, tc := range []struct {
		status string
		get    func(c *Client) ([]byte, error)
	}{
		{"200 OK", func(c *Client) ([]byte, error) {
			b, _, err := c.Get(context.Background(), "r", "k")
			return b, err
		}},
		{"206 Partial Content", func(c *Client) ([]byte, error) {
			return c.GetRange(context.Background(), "r", "k", 0, 4096)
		}},
		{"200 OK", func(c *Client) ([]byte, error) {
			b, _, err := c.GetIfNoneMatch(context.Background(), "r", "k", "stale")
			return b, err
		}},
	} {
		ts := rawServer(t, tc.status, 4096, body)
		got, err := tc.get(New(ts.URL, WithHTTPClient(ts.Client())))
		ts.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
			t.Errorf("%s with 1000 of 4096 declared bytes: %d bytes, err %v; want nil and io.ErrUnexpectedEOF",
				tc.status, len(got), err)
		}
	}
}

// TestGetHugeDeclaredLengthBoundedAlloc: a declared length far beyond the
// body (1 TiB from a broken or hostile server) fails without allocating
// anything like it: the client allocates at most maxPrealloc up front.
func TestGetHugeDeclaredLengthBoundedAlloc(t *testing.T) {
	ts := rawServer(t, "200 OK", 1<<40, make([]byte, 4096))
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, _, err := c.Get(context.Background(), "r", "k")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
		t.Fatalf("1 TiB declared, 4 KiB sent: %d bytes, err %v; want nil and io.ErrUnexpectedEOF", len(got), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxPrealloc+1<<20 {
		t.Errorf("failed GET allocated %d MiB, want at most the %d MiB prealloc cap plus 1 MiB",
			alloc>>20, maxPrealloc>>20)
	}
}

// TestGetLengthPastPreallocCap: a declared body larger than the up-front
// cap still reads whole, growing as the bytes arrive.
func TestGetLengthPastPreallocCap(t *testing.T) {
	content := make([]byte, maxPrealloc*5/2)
	rand.New(rand.NewSource(1)).Read(content)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(content)))
		w.Write(content)
	}))
	defer ts.Close()
	got, _, err := New(ts.URL, WithHTTPClient(ts.Client())).Get(context.Background(), "r", "k")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("GET of %d bytes: err %v, %d bytes back", len(content), err, len(got))
	}
}

// BenchmarkClientGet measures a sized GET (Content-Length declared) end to
// end over loopback; allocs/op and B/op show the client's body buffer.
func BenchmarkClientGet(b *testing.B) {
	for _, size := range []int{4 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			content := make([]byte, size)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", strconv.Itoa(size))
				w.Write(content)
			}))
			defer ts.Close()
			c := New(ts.URL, WithHTTPClient(ts.Client()))
			ctx := context.Background()
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Get(ctx, "r", "k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
