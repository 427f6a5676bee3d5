package adminapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"myraft/internal/multiraft"
)

// Client is the myraftctl side of the admin API.
type Client struct {
	base string
	http *http.Client
	// shard, when set, scopes every ring-level request (status, promote,
	// membership, flush, purge, fix-quorum, split) to that shard; empty
	// means the server default, shard 0.
	shard string
}

// NewClient targets the admin endpoint at base (e.g.
// "http://127.0.0.1:7070").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 180 * time.Second},
	}
}

// SetShard scopes subsequent ring-level requests to the given shard
// ("" reverts to the server default, shard 0).
func (c *Client) SetShard(shard string) { c.shard = shard }

func (c *Client) do(method, path string, params url.Values, out any) error {
	if c.shard != "" {
		if params == nil {
			params = url.Values{}
		}
		if params.Get("shard") == "" {
			params.Set("shard", c.shard)
		}
	}
	u := c.base + path
	var body io.Reader
	if method == http.MethodPost && params != nil {
		body = strings.NewReader(params.Encode())
	} else if params != nil {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("adminapi: %s", e.Error)
		}
		return fmt.Errorf("adminapi: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// Status fetches the scoped shard ring's status (SetShard; default 0).
func (c *Client) Status() (ClusterStatus, error) {
	var st ClusterStatus
	err := c.do(http.MethodGet, "/status", nil, &st)
	return st, err
}

// Promote gracefully transfers leadership to target.
func (c *Client) Promote(target string) error {
	return c.do(http.MethodPost, "/promote", url.Values{"target": {target}}, nil)
}

// Crash injects a crash into a member.
func (c *Client) Crash(id string) error {
	return c.do(http.MethodPost, "/crash", url.Values{"id": {id}}, nil)
}

// Restart recovers a crashed member.
func (c *Client) Restart(id string) error {
	return c.do(http.MethodPost, "/restart", url.Values{"id": {id}}, nil)
}

// Partition blocks traffic between two members.
func (c *Client) Partition(a, b string) error {
	return c.do(http.MethodPost, "/partition", url.Values{"a": {a}, "b": {b}}, nil)
}

// Heal removes all partitions.
func (c *Client) Heal() error { return c.do(http.MethodPost, "/heal", nil, nil) }

// AddMember proposes a membership addition.
func (c *Client) AddMember(id, region, kind string, voter bool) error {
	return c.do(http.MethodPost, "/member/add", url.Values{
		"id": {id}, "region": {region}, "kind": {kind}, "voter": {fmt.Sprint(voter)},
	}, nil)
}

// RemoveMember proposes a membership removal.
func (c *Client) RemoveMember(id string) error {
	return c.do(http.MethodPost, "/member/remove", url.Values{"id": {id}}, nil)
}

// Write performs a client write through the replicaset.
func (c *Client) Write(key, value string) (string, error) {
	var out map[string]string
	err := c.do(http.MethodPost, "/write", url.Values{"key": {key}, "value": {value}}, &out)
	return out["opid"], err
}

// Read reads a key from the primary.
func (c *Client) Read(key string) (string, bool, error) {
	var out struct {
		Found bool   `json:"found"`
		Value string `json:"value"`
	}
	err := c.do(http.MethodGet, "/read", url.Values{"key": {key}}, &out)
	return out.Value, out.Found, err
}

// ReadResult is the payload of a leveled read.
type ReadResult struct {
	Found    bool   `json:"found"`
	Value    string `json:"value"`
	Level    string `json:"level"`
	Index    uint64 `json:"index"`
	FellBack bool   `json:"fell_back"`
}

// ReadAt reads a key at an explicit consistency level: "linearizable",
// "lease", "session", or "local". Session reads name the serving member
// via at and gate on a "term.index" session token (empty = no floor).
func (c *Client) ReadAt(key, level, at, token string) (ReadResult, error) {
	params := url.Values{"key": {key}, "level": {level}}
	if at != "" {
		params.Set("at", at)
	}
	if token != "" {
		params.Set("token", token)
	}
	var out ReadResult
	err := c.do(http.MethodGet, "/read", params, &out)
	return out, err
}

// FlushBinlogs rotates the primary's binlog through Raft.
func (c *Client) FlushBinlogs() error {
	return c.do(http.MethodPost, "/flush-binlogs", nil, nil)
}

// Purge runs one cluster purge round, retaining at least retain entries
// below the log tail, and returns the purge floor after the round.
func (c *Client) Purge(retain uint64) (uint64, error) {
	var out map[string]uint64
	err := c.do(http.MethodPost, "/purge", url.Values{"retain": {fmt.Sprint(retain)}}, &out)
	return out["purge_floor"], err
}

// RuntimeStatus fetches the aggregate process rollup.
func (c *Client) RuntimeStatus() (RuntimeStatus, error) {
	var st RuntimeStatus
	err := c.do(http.MethodGet, "/runtime", nil, &st)
	return st, err
}

// Split splits the scoped shard (SetShard; default 0) online: the upper
// half of its hash range moves to a freshly bootstrapped ring.
func (c *Client) Split() (multiraft.SplitReport, error) {
	var out multiraft.SplitReport
	err := c.do(http.MethodPost, "/split", nil, &out)
	return out, err
}

// Shards fetches the per-shard rollup.
func (c *Client) Shards() ([]multiraft.ShardStatus, error) {
	var rows []multiraft.ShardStatus
	err := c.do(http.MethodGet, "/shards", nil, &rows)
	return rows, err
}

// Balance triggers one leader-balancing pass and returns how many
// transfers it performed.
func (c *Client) Balance() (int, error) {
	var out map[string]int
	err := c.do(http.MethodPost, "/balance", nil, &out)
	return out["moves"], err
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("adminapi: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return string(data), nil
}

// Trace fetches the per-member write-path stage summaries and slow-op
// journals (the myraftctl top feed).
func (c *Client) Trace() (TraceStatus, error) {
	var st TraceStatus
	err := c.do(http.MethodGet, "/trace", nil, &st)
	return st, err
}

// FixQuorum runs the Quorum Fixer remediation.
func (c *Client) FixQuorum(allowDataLoss bool) (string, error) {
	var out map[string]string
	err := c.do(http.MethodPost, "/fix-quorum",
		url.Values{"allow_data_loss": {fmt.Sprint(allowDataLoss)}}, &out)
	return out["chosen"], err
}
