package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"blobdb/internal/core"
)

// HTTPSource tails a blobserver primary's /repl/v1 API — the
// between-processes transport of the replication protocol. It mirrors
// EngineSource exactly: the server side of every endpoint is implemented
// with an EngineSource over the primary's engine.
type HTTPSource struct {
	base  string
	hc    *http.Client
	shard int
}

// NewHTTPSource tails the primary at base (e.g. "http://db0:8080"). hc nil
// means http.DefaultClient. Against a sharded primary, Shard selects which
// shard's stream to follow.
func NewHTTPSource(base string, hc *http.Client) *HTTPSource {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &HTTPSource{base: strings.TrimRight(base, "/"), hc: hc}
}

// Shard returns a source tailing the given shard's stream (default 0).
func (s *HTTPSource) Shard(id int) *HTTPSource {
	c := *s
	c.shard = id
	return &c
}

func (s *HTTPSource) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("repl: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return resp, nil
}

func (s *HTTPSource) getJSON(ctx context.Context, path string, v any) error {
	resp, err := s.get(ctx, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// Pull returns the primary's durable records above after.
func (s *HTTPSource) Pull(ctx context.Context, after uint64) (Pull, error) {
	var p Pull
	err := s.getJSON(ctx, fmt.Sprintf("/repl/v1/pull?after=%d&shard=%d", after, s.shard), &p)
	return p, err
}

// FetchBlob streams the primary's current committed content for the key:
// fn reads the response body, whose Content-Length is the size, so a body
// cut short fails the transfer instead of installing a prefix.
func (s *HTTPSource) FetchBlob(ctx context.Context, rel string, key []byte, fn core.ContentFn) error {
	path := "/repl/v1/blob/" + url.PathEscape(rel) + "/" + escapeKeyPath(key) + "?shard=" + strconv.Itoa(s.shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusGone: // not 404, which also means no such shard
		return core.ErrBlobVanished
	case resp.StatusCode != http.StatusOK:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: fetch blob %q/%q: %s: %s", rel, key, resp.Status, strings.TrimSpace(string(body)))
	case resp.ContentLength < 0:
		return fmt.Errorf("repl: fetch blob %q/%q: response has no Content-Length", rel, key)
	}
	return fn(strings.Trim(resp.Header.Get("ETag"), `"`), uint64(resp.ContentLength), resp.Body)
}

// Snapshot fetches a full logical image for resync.
func (s *HTTPSource) Snapshot(ctx context.Context) (*Snapshot, error) {
	snap := &Snapshot{}
	if err := s.getJSON(ctx, fmt.Sprintf("/repl/v1/snapshot?shard=%d", s.shard), snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// escapeKeyPath escapes a key for use as a path suffix, preserving "/" so
// hierarchical keys round-trip through the {key...} wildcard.
func escapeKeyPath(key []byte) string {
	parts := strings.Split(string(key), "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return strings.Join(parts, "/")
}
