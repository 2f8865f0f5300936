// Package mmlpclient is the Go client for the mmlpd daemon. It speaks
// the JSON surface defined in internal/httpapi and surfaces every
// daemon failure as a *httpapi.Error carrying the stable
// machine-readable code and the HTTP status it travelled with — callers
// branch on the code, never on message text. The daemon's own tests use
// this client against live servers, so the two sides of the wire
// contract are exercised together.
package mmlpclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"maxminlp/internal/backoff"
	"maxminlp/internal/httpapi"
)

// RetryPolicy configures automatic retries. Only idempotent requests
// retry — reads (GET, solve batches, which mutate nothing) and DELETE
// — never loads or patches, whose replay would double-apply.
//
// A retry fires on transport errors and on the responses that promise
// the condition is transient: 503 with `server/recovering` (the daemon
// is replaying its WAL) or `cluster/degraded` (workers died; the
// healing loop is readmitting them), and 502 `cluster`. The wait
// before each retry is the jittered exponential delay of Backoff, or
// the server's Retry-After when it asks for longer.
type RetryPolicy struct {
	// MaxAttempts bounds total tries (first attempt included);
	// values ≤ 1 disable retrying.
	MaxAttempts int
	// Backoff shapes the jittered exponential wait between tries.
	Backoff backoff.Policy
	// RetryAfterCap bounds how long a server Retry-After is honoured;
	// 0 honours it in full.
	RetryAfterCap time.Duration
}

// DefaultRetry is the policy the daemon's own tooling uses: 4
// attempts, 100ms·2ⁿ jitter capped at 1s, Retry-After honoured up to
// 5s.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   4,
		Backoff:       backoff.Policy{Base: 100 * time.Millisecond, Max: time.Second},
		RetryAfterCap: 5 * time.Second,
	}
}

// Client talks to one mmlpd daemon. It is safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
	sleep func(time.Duration) // test seam
	seed  int64

	// memos holds, per instance id, the last X text and vector of each
	// (kind, radius) Solve decoded, so an unchanged X is not re-parsed.
	mu    sync.Mutex
	memos map[string]*httpapi.XMemo
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for
// http.DefaultClient. Retries are off by default; enable with
// SetRetry.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		http:  httpClient,
		sleep: time.Sleep,
		seed:  time.Now().UnixNano(),
	}
}

// SetRetry installs a retry policy for idempotent requests.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

// do performs one request, retrying idempotent ones per the policy.
// Bodies encode as JSON; a 2xx response body goes to decode (nil
// discards it); non-2xx responses decode the error envelope into the
// returned *httpapi.Error. A response that should carry an envelope
// but does not becomes a CodeInternal error, so callers always get a
// code to branch on.
func (c *Client) do(method, path string, in any, decode func([]byte) error, idempotent bool) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = b
	}
	attempts := 1
	if idempotent && c.retry.MaxAttempts > attempts {
		attempts = c.retry.MaxAttempts
	}
	bo := backoff.New(c.retry.Backoff, c.seed)
	for attempt := 1; ; attempt++ {
		err := c.once(method, path, body, in != nil, decode)
		if err == nil {
			return nil
		}
		if attempt >= attempts || !retryable(err) {
			return err
		}
		delay := bo.Delay()
		bo.Advance()
		if ra := retryAfterOf(err, c.retry.RetryAfterCap); ra > delay {
			delay = ra
		}
		c.sleep(delay)
	}
}

func (c *Client) once(method, path string, body []byte, hasBody bool, decode func([]byte) error) error {
	var rd *bytes.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	var req *http.Request
	var err error
	if rd != nil {
		req, err = http.NewRequest(method, c.base+path, rd)
	} else {
		req, err = http.NewRequest(method, c.base+path, nil)
	}
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	// Reading the body to EOF on every path lets the transport reuse
	// the connection; a body closed unread costs a new one.
	raw, err := readBody(resp)
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp.StatusCode, raw)
	}
	if err != nil {
		return err
	}
	if decode == nil {
		return nil
	}
	return decode(raw)
}

// readBody reads a response body to EOF, in one allocation when the
// length is declared.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > 1<<20 {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// into returns a decoder that unmarshals a JSON body into v.
func into(v any) func([]byte) error {
	return func(b []byte) error { return json.Unmarshal(b, v) }
}

// retryable reports whether an attempt's failure is worth repeating:
// transport errors (the daemon may be restarting), and the statuses
// that explicitly signal a transient condition.
func retryable(err error) bool {
	apiErr, ok := err.(*httpapi.Error)
	if !ok {
		return true // transport-level: connection refused/reset mid-restart
	}
	switch apiErr.Status {
	case http.StatusServiceUnavailable, http.StatusBadGateway:
		return true
	}
	return false
}

// retryAfterOf extracts the server's requested wait, capped.
func retryAfterOf(err error, cap time.Duration) time.Duration {
	apiErr, ok := err.(*httpapi.Error)
	if !ok || apiErr.RetryAfterS <= 0 {
		return 0
	}
	d := time.Duration(apiErr.RetryAfterS) * time.Second
	if cap > 0 && d > cap {
		d = cap
	}
	return d
}

func decodeError(status int, body []byte) *httpapi.Error {
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code == "" {
		return &httpapi.Error{
			Code:    httpapi.CodeInternal,
			Message: fmt.Sprintf("status %d without an error envelope", status),
			Status:  status,
		}
	}
	env.Error.Status = status
	return env.Error
}

// Load creates an instance from a generator spec or inline JSON.
func (c *Client) Load(req *httpapi.LoadRequest) (*httpapi.InstanceInfo, error) {
	var info httpapi.InstanceInfo
	if err := c.do(http.MethodPost, "/v1/instances", req, into(&info), false); err != nil {
		return nil, err
	}
	return &info, nil
}

// List returns the loaded instances, sorted by load sequence.
func (c *Client) List() (*httpapi.ListResponse, error) {
	var out httpapi.ListResponse
	if err := c.do(http.MethodGet, "/v1/instances", nil, into(&out), true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Get describes one instance.
func (c *Client) Get(id string) (*httpapi.InstanceInfo, error) {
	var info httpapi.InstanceInfo
	if err := c.do(http.MethodGet, "/v1/instances/"+url.PathEscape(id), nil, into(&info), true); err != nil {
		return nil, err
	}
	return &info, nil
}

// Delete unloads an instance.
func (c *Client) Delete(id string) error {
	c.mu.Lock()
	delete(c.memos, id)
	c.mu.Unlock()
	return c.do(http.MethodDelete, "/v1/instances/"+url.PathEscape(id), nil, nil, true)
}

// Solve runs a batch of queries against an instance's session. Each
// returned X is the caller's own: an X whose text repeats the last one
// served for its instance, kind and radius is a copy of the vector
// parsed then.
func (c *Client) Solve(id string, req *httpapi.SolveRequest) ([]httpapi.SolveResult, error) {
	memo := c.memo(id)
	var out []httpapi.SolveResult
	decode := func(b []byte) (err error) {
		out, err = httpapi.DecodeSolveResults(b, memo)
		return err
	}
	if err := c.do(http.MethodPost, "/v1/instances/"+url.PathEscape(id)+"/solve", req, decode, true); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Client) memo(id string) *httpapi.XMemo {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.memos[id]
	if m == nil {
		if c.memos == nil {
			c.memos = make(map[string]*httpapi.XMemo)
		}
		m = new(httpapi.XMemo)
		c.memos[id] = m
	}
	return m
}

// PatchWeights applies one atomic coefficient patch.
func (c *Client) PatchWeights(id string, req *httpapi.WeightsRequest) (*httpapi.WeightsResponse, error) {
	var out httpapi.WeightsResponse
	if err := c.do(http.MethodPost, "/v1/instances/"+url.PathEscape(id)+"/weights", req, into(&out), false); err != nil {
		return nil, err
	}
	return &out, nil
}

// PatchTopology applies one atomic structural patch.
func (c *Client) PatchTopology(id string, req *httpapi.TopologyRequest) (*httpapi.TopologyResponse, error) {
	var out httpapi.TopologyResponse
	if err := c.do(http.MethodPost, "/v1/instances/"+url.PathEscape(id)+"/topology", req, into(&out), false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health reads the liveness endpoint.
func (c *Client) Health() (*httpapi.HealthResponse, error) {
	var out httpapi.HealthResponse
	if err := c.do(http.MethodGet, "/healthz", nil, into(&out), true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats reads the observability summary.
func (c *Client) Stats() (*httpapi.StatsResponse, error) {
	var out httpapi.StatsResponse
	if err := c.do(http.MethodGet, "/v1/stats", nil, into(&out), true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cluster reads the coordinator's membership and sync snapshot; only
// cluster coordinators serve it.
func (c *Client) Cluster() (*httpapi.ClusterResponse, error) {
	var out httpapi.ClusterResponse
	if err := c.do(http.MethodGet, "/v1/cluster", nil, into(&out), true); err != nil {
		return nil, err
	}
	return &out, nil
}
