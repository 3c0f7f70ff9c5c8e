package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a thin Go client for the serve API — what the repo
// benchmark's load generator (benchmark/serve.go) and the parity tests
// drive the server with. It is a
// convenience over net/http, not a required SDK: every endpoint is plain
// JSON (or the documented binary batch format) over HTTP.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil uses a dedicated client with
	// keep-alives (not http.DefaultClient, so tests don't share pools).
	HTTP *http.Client
}

// NewClient returns a Client for the server root base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{}}
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is the JSON error body the server writes on failures.
type apiError struct {
	Status int
	Body   string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("serve: http %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// IsStatus reports whether err is a server response with the given code.
func IsStatus(err error, status int) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Status == status
}

func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return &apiError{Status: resp.StatusCode, Body: string(raw)}
	}
	if out != nil && len(raw) > 0 {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// CreateTenant registers cfg and returns the server's tenant info.
func (c *Client) CreateTenant(ctx context.Context, cfg TenantConfig) (map[string]any, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	err = c.do(ctx, http.MethodPost, "/v1/tenants", JSONContentType, bytes.NewReader(body), &out)
	return out, err
}

// CloseTenant deletes the named tenant, closing its session.
func (c *Client) CloseTenant(ctx context.Context, tenant string) error {
	return c.do(ctx, http.MethodDelete, "/v1/tenants/"+url.PathEscape(tenant), "", nil, nil)
}

// PutJSON ingests rows into table via the JSON format. Each row is a
// JSON-ready cell slice matching the table's column kinds.
func (c *Client) PutJSON(ctx context.Context, tenant, table string, rows [][]any) error {
	body, err := json.Marshal(map[string]any{"table": table, "rows": rows})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(tenant)+"/put",
		JSONContentType, bytes.NewReader(body), nil)
}

// PutBinary ingests a pre-encoded binary batch stream (see AppendFrame).
func (c *Client) PutBinary(ctx context.Context, tenant string, frames []byte) error {
	return c.do(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(tenant)+"/put",
		BinaryContentType, bytes.NewReader(frames), nil)
}

// QuiesceResult is the response of the quiesce endpoint.
type QuiesceResult struct {
	QuiesceNanos int64            `json:"quiesce_nanos"`
	Steps        int64            `json:"steps"`
	Versions     map[string]int64 `json:"versions"`
}

// Quiesce drives the tenant's session to a quiescent boundary.
func (c *Client) Quiesce(ctx context.Context, tenant string) (QuiesceResult, error) {
	var out QuiesceResult
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(tenant)+"/quiesce", "", nil, &out)
	return out, err
}

// Query runs a prefix query and returns the canonical rows JSON (see
// RowsJSON) exactly as served. prefix is a JSON array literal or "".
func (c *Client) Query(ctx context.Context, tenant, table, prefix string) ([]byte, error) {
	q := url.Values{"table": {table}}
	if prefix != "" {
		q.Set("prefix", prefix)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/v1/tenants/"+url.PathEscape(tenant)+"/query?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &apiError{Status: resp.StatusCode, Body: string(raw)}
	}
	return raw, nil
}

// CheckpointResult is the response of the checkpoint endpoint.
type CheckpointResult struct {
	Seq          uint64 `json:"seq"`
	Tables       int    `json:"tables"`
	Tuples       int    `json:"tuples"`
	ElapsedNanos int64  `json:"elapsed_nanos"`
}

// Checkpoint forces a Gamma checkpoint on a durable tenant at its next
// quiescent boundary.
func (c *Client) Checkpoint(ctx context.Context, tenant string) (CheckpointResult, error) {
	var out CheckpointResult
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(tenant)+"/checkpoint", "", nil, &out)
	return out, err
}

// Subscription identifies a registered query subscription and the change
// generation current at registration.
type Subscription struct {
	ID      int64  `json:"id"`
	Table   string `json:"table"`
	Version int64  `json:"version"`
}

// Subscribe registers a table+prefix subscription.
func (c *Client) Subscribe(ctx context.Context, tenant, table, prefix string) (Subscription, error) {
	body, _ := json.Marshal(map[string]string{"table": table, "prefix": prefix})
	var out Subscription
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(tenant)+"/subscribe",
		JSONContentType, bytes.NewReader(body), &out)
	return out, err
}

// Poll long-polls subscription id until the table's quiesced state changes
// past since, the timeout elapses (returns ok=false), or ctx is done.
func (c *Client) Poll(ctx context.Context, tenant string, id, since int64, timeout time.Duration) (version int64, ok bool, err error) {
	q := url.Values{"since": {strconv.FormatInt(since, 10)}}
	if timeout > 0 {
		q.Set("timeout", timeout.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/v1/tenants/"+url.PathEscape(tenant)+"/subscriptions/"+strconv.FormatInt(id, 10)+"/poll?"+q.Encode(), nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false, err
	}
	switch resp.StatusCode {
	case http.StatusNoContent:
		return since, false, nil
	case http.StatusOK:
		var out struct {
			Version int64 `json:"version"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return 0, false, err
		}
		return out.Version, true, nil
	default:
		return 0, false, &apiError{Status: resp.StatusCode, Body: string(raw)}
	}
}

// Unsubscribe removes subscription id.
func (c *Client) Unsubscribe(ctx context.Context, tenant string, id int64) error {
	return c.do(ctx, http.MethodDelete,
		"/v1/tenants/"+url.PathEscape(tenant)+"/subscriptions/"+strconv.FormatInt(id, 10), "", nil, nil)
}

// SSEEvent is one server-sent event from the events endpoint.
type SSEEvent struct {
	Event   string
	Table   string
	Version int64
}

// Events opens the SSE stream for subscription id and invokes fn per
// event until the stream ends or fn returns false. It blocks; cancel ctx
// to stop.
func (c *Client) Events(ctx context.Context, tenant string, id int64, fn func(SSEEvent) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/v1/tenants/"+url.PathEscape(tenant)+"/subscriptions/"+strconv.FormatInt(id, 10)+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return &apiError{Status: resp.StatusCode, Body: string(raw)}
	}
	sc := bufio.NewScanner(resp.Body)
	var ev SSEEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var data struct {
				Table   string `json:"table"`
				Version int64  `json:"version"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &data); err != nil {
				return err
			}
			ev.Table, ev.Version = data.Table, data.Version
		case line == "":
			if ev.Event != "" && !fn(ev) {
				return nil
			}
			ev = SSEEvent{}
		}
	}
	return sc.Err()
}
