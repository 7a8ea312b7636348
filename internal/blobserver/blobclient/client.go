// Package blobclient is a small Go client for the blobserver HTTP API,
// used by load tests and external tools. It speaks plain net/http so it
// works against both HTTP/1.1 and h2c deployments.
package blobclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Client talks to one blobserver primary, optionally spreading reads
// across a set of replicas.
type Client struct {
	base     string
	hc       *http.Client
	timeout  time.Duration
	retry    retryPolicy
	replicas []string
	rr       atomic.Uint32 // round-robin cursor over replicas
}

// retryPolicy bounds the client's reaction to 503 load sheds.
type retryPolicy struct {
	attempts int           // total tries including the first; <=1 disables retry
	base     time.Duration // first backoff step
	max      time.Duration // cap on any single sleep (backoff or Retry-After)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient supplies the underlying *http.Client. Defaults to
// http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithTimeout bounds every request end to end (connect through body
// read). It layers onto whatever client WithHTTPClient supplied by
// cloning it with the Timeout set, so a shared http.Client is never
// mutated.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithReadReplicas routes reads (Get, GetRange, GetIfNoneMatch)
// replica-first: each read picks the next replica round-robin and falls
// back to the primary when the replica cannot serve it — a staleness
// shed (503 behind the requested freshness floor), a key the replica
// has not replayed yet (404), a replica that was promoted or
// misconfigured (421), or a transport error. Writes and listings always
// go to the primary.
func WithReadReplicas(urls ...string) Option {
	return func(c *Client) {
		for _, u := range urls {
			c.replicas = append(c.replicas, strings.TrimRight(u, "/"))
		}
	}
}

// WithRetry makes the client retry 503 responses (admission sheds and
// fenced-shard rejections) up to attempts total tries. Each retry sleeps
// the server's Retry-After hint when present, otherwise an exponential
// backoff starting at base; either way the sleep is capped at max and
// jittered ±25% so synchronized clients don't re-stampede a recovering
// shard in lockstep. Only requests whose body can be replayed are
// retried: bodiless requests always, PUTs only when the body reader is
// rewindable (Put's in-memory bodies are; an arbitrary PutReader stream
// is not and fails fast instead of replaying a half-read stream).
func WithRetry(attempts int, base, max time.Duration) Option {
	return func(c *Client) {
		if base <= 0 {
			base = 100 * time.Millisecond
		}
		if max <= 0 {
			max = 5 * time.Second
		}
		c.retry = retryPolicy{attempts: attempts, base: base, max: max}
	}
}

// New creates a client for the primary at base (e.g.
// "http://127.0.0.1:9090"), configured by functional options:
// WithHTTPClient, WithTimeout, WithRetry, WithReadReplicas.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	if c.timeout > 0 {
		hc := *c.hc
		hc.Timeout = c.timeout
		c.hc = &hc
	}
	return c
}

// ServerError is a non-2xx response.
type ServerError struct {
	Status     int
	RetryAfter time.Duration // parsed from Retry-After on 503, else 0
	Msg        string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("blobclient: server returned %d: %s", e.Status, strings.TrimSpace(e.Msg))
}

// IsNotFound reports whether err is a 404 from the server.
func IsNotFound(err error) bool {
	se, ok := err.(*ServerError)
	return ok && se.Status == http.StatusNotFound
}

// IsOverloaded reports whether err is a 503 admission rejection.
func IsOverloaded(err error) bool {
	se, ok := err.(*ServerError)
	return ok && se.Status == http.StatusServiceUnavailable
}

func blobPath(rel, key string) string {
	segs := strings.Split(key, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return "/v1/" + url.PathEscape(rel) + "/" + strings.Join(segs, "/")
}

func (c *Client) blobURL(rel, key string) string {
	return c.base + blobPath(rel, key)
}

// doRead issues a GET for path. With replicas configured it tries the
// next replica (round-robin) first with a single attempt — no backoff:
// a replica that sheds, misses, or errors is answered fastest by the
// primary — then falls back to the primary with the full retry policy.
func (c *Client) doRead(ctx context.Context, path string, hdr map[string]string, wantStatus ...int) (*http.Response, error) {
	build := func(base string) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		return req, nil
	}
	if len(c.replicas) > 0 {
		base := c.replicas[int(c.rr.Add(1)-1)%len(c.replicas)]
		req, err := build(base)
		if err != nil {
			return nil, err
		}
		if resp, err := c.doOnce(req, wantStatus...); err == nil {
			return resp, nil
		} else if ctx.Err() != nil {
			return nil, err // caller gone; don't hammer the primary too
		}
	}
	req, err := build(c.base)
	if err != nil {
		return nil, err
	}
	return c.do(req, wantStatus...)
}

func (c *Client) do(req *http.Request, wantStatus ...int) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.doOnce(req, wantStatus...)
		if err == nil {
			return resp, nil
		}
		se, overloaded := err.(*ServerError)
		if !overloaded || se.Status != http.StatusServiceUnavailable ||
			attempt+1 >= c.retry.attempts || !replayable(req) {
			return nil, err
		}
		if err := sleepBackoff(req.Context(), c.retry, attempt, se.RetryAfter); err != nil {
			return nil, err
		}
		if req.Body != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			req.Body = body
		}
	}
}

func (c *Client) doOnce(req *http.Request, wantStatus ...int) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	for _, s := range wantStatus {
		if resp.StatusCode == s {
			return resp, nil
		}
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	se := &ServerError{Status: resp.StatusCode, Msg: string(msg)}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return nil, se
}

// replayable reports whether the request can be re-sent: no body, or a
// body net/http knows how to rewind (GetBody is set for in-memory
// readers).
func replayable(req *http.Request) bool {
	return req.Body == nil || req.GetBody != nil
}

// sleepBackoff waits out one retry delay: the server's Retry-After hint
// when given, otherwise exponential backoff from the policy's base —
// both capped at the policy max and jittered ±25%.
func sleepBackoff(ctx context.Context, p retryPolicy, attempt int, hint time.Duration) error {
	d := hint
	if d <= 0 {
		d = p.base << attempt
	}
	if d > p.max {
		d = p.max
	}
	// Full-interval ±25% jitter: a fleet of clients shed at the same
	// instant must not retry at the same instant.
	d += time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CreateRelation creates a relation; it is an error if it already exists.
func (c *Client) CreateRelation(ctx context.Context, rel string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+url.PathEscape(rel), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req, http.StatusCreated)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Relations lists relation names.
func (c *Client) Relations(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Relations []string `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Relations, nil
}

// KeyInfo mirrors the server's key-listing row.
type KeyInfo struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
	ETag string `json:"etag"`
}

// List returns the keys of a relation in order.
func (c *Client) List(ctx context.Context, rel string) ([]KeyInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/"+url.PathEscape(rel), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Keys []KeyInfo `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Keys, nil
}

// Put stores content under rel/key and returns the server's ETag. For
// bodies that are not already in memory, use PutReader.
func (c *Client) Put(ctx context.Context, rel, key string, content []byte) (string, error) {
	return c.PutReader(ctx, rel, key, bytes.NewReader(content), int64(len(content)))
}

// PutReader streams body as the blob rel/key and returns the server's
// ETag. size is the body length in bytes, or -1 if unknown (the request
// is then sent with chunked transfer encoding); the server streams either
// way, so arbitrarily large blobs upload in constant client and server
// memory. body is read exactly once.
func (c *Client) PutReader(ctx context.Context, rel, key string, body io.Reader, size int64) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.blobURL(rel, key), body)
	if err != nil {
		return "", err
	}
	if size >= 0 {
		req.ContentLength = size
	}
	resp, err := c.do(req, http.StatusCreated)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	return strings.Trim(resp.Header.Get("ETag"), `"`), nil
}

// Get reads the whole blob, returning its content and ETag.
func (c *Client) Get(ctx context.Context, rel, key string) ([]byte, string, error) {
	resp, err := c.doRead(ctx, blobPath(rel, key), nil, http.StatusOK)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	content, err := readBody(resp)
	return content, strings.Trim(resp.Header.Get("ETag"), `"`), err
}

// GetRange reads n bytes starting at off (a 206 partial response).
func (c *Client) GetRange(ctx context.Context, rel, key string, off, n int64) ([]byte, error) {
	hdr := map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", off, off+n-1)}
	resp, err := c.doRead(ctx, blobPath(rel, key), hdr, http.StatusPartialContent)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readBody(resp)
}

// GetIfNoneMatch conditionally reads the blob: notModified is true (and
// content nil) when the server answered 304 for the given ETag.
func (c *Client) GetIfNoneMatch(ctx context.Context, rel, key, etag string) (content []byte, notModified bool, err error) {
	resp, err := c.doRead(ctx, blobPath(rel, key), map[string]string{"If-None-Match": `"` + etag + `"`}, http.StatusOK, http.StatusNotModified)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return nil, true, nil
	}
	content, err = readBody(resp)
	return content, false, err
}

// maxPrealloc caps the buffer readBody allocates before any body byte has
// arrived. A larger declared Content-Length is still read, but the buffer
// then grows only as bytes arrive, so a length the body never delivers
// costs at most this much memory.
const maxPrealloc = 8 << 20

// readBody reads a response body whole. With a declared Content-Length it
// reads into one buffer of exactly that size — no regrowth, no copy, for
// bodies up to maxPrealloc — and a body shorter than declared is an
// io.ErrUnexpectedEOF. Without one (a chunked response) it falls back to
// io.ReadAll's growing reads.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 {
		return io.ReadAll(resp.Body)
	}
	buf := make([]byte, min(n, maxPrealloc))
	got := 0
	for {
		if _, err := io.ReadFull(resp.Body, buf[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		got = len(buf)
		if int64(got) == n {
			return buf, nil
		}
		// Declared past the first buffer: double it, never beyond the
		// declared length, and read on into the new half.
		buf = append(buf, make([]byte, min(n, 2*int64(got))-int64(got))...)
	}
}

// Delete removes rel/key.
func (c *Client) Delete(ctx context.Context, rel, key string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.blobURL(rel, key), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req, http.StatusNoContent)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Vars fetches the server's /debug/vars document, decoded into nested
// maps — load tests read the commit-pipeline batching stats from it.
func (c *Client) Vars(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
