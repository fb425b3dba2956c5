package services

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"webfountain/internal/vinci"
)

// HealthService is the liveness/readiness service every node exposes.
// In a 500+ node deployment, callers probe a node before committing a
// mining run to it; a node that cannot answer ping is skipped rather
// than discovered mid-run.
const HealthService = "health"

// HealthOptions configures the health service.
type HealthOptions struct {
	// Node is the node's self-reported name (default "wfnode").
	Node string
	// Registry, when set, lets the status op report the services the
	// node serves.
	Registry *vinci.Registry
	// Entities, when set, lets the status op report the entity count.
	Entities func() int
	// Degraded, when set, lets the status op report that the node's
	// store has entered degraded read-only mode (its write-ahead log
	// failed) and why. A degraded node still answers reads; callers use
	// the flag to route writes and mining runs elsewhere.
	Degraded func() (bool, string)
	// now overrides the clock in tests.
	now func() time.Time
}

// RegisterHealth exposes node liveness: ops ping, status and uptime.
// Uptime is measured from registration time.
func RegisterHealth(reg *vinci.Registry, opts HealthOptions) {
	if opts.Node == "" {
		opts.Node = "wfnode"
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	start := opts.now()
	reg.Register(HealthService, func(req vinci.Request) vinci.Response {
		switch req.Op {
		case "ping":
			return vinci.OKResponse(map[string]string{"pong": "1", "node": opts.Node})
		case "uptime":
			up := opts.now().Sub(start)
			return vinci.OKResponse(map[string]string{
				"seconds": strconv.FormatInt(int64(up/time.Second), 10),
			})
		case "status":
			fields := map[string]string{
				"node":    opts.Node,
				"seconds": strconv.FormatInt(int64(opts.now().Sub(start)/time.Second), 10),
			}
			if opts.Registry != nil {
				fields["services"] = strings.Join(opts.Registry.Services(), " ")
			}
			if opts.Entities != nil {
				fields["entities"] = strconv.Itoa(opts.Entities())
			}
			if opts.Degraded != nil {
				if deg, reason := opts.Degraded(); deg {
					fields["degraded"] = "1"
					fields["degraded_reason"] = reason
				} else {
					fields["degraded"] = "0"
				}
			}
			return vinci.OKResponse(fields)
		}
		return vinci.Errorf("health: unknown op %q", req.Op)
	})
}

// NodeStatus is a node's self-reported health.
type NodeStatus struct {
	// Node is the node's name.
	Node string
	// Services are the vinci services the node serves.
	Services []string
	// Entities is the node's entity count (-1 when not reported).
	Entities int
	// Uptime is how long the node has served, at second granularity.
	Uptime time.Duration
	// Degraded reports the node's store is in read-only mode;
	// DegradedReason says why.
	Degraded       bool
	DegradedReason string
}

// HealthClient is the typed client for the health service.
type HealthClient struct{ C vinci.Client }

// Ping checks liveness.
func (hc HealthClient) Ping() error {
	resp, err := hc.C.Call(vinci.Request{Service: HealthService, Op: "ping"})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	if resp.Fields["pong"] != "1" {
		return fmt.Errorf("health: bad ping response %+v", resp.Fields)
	}
	return nil
}

// Uptime reports how long the node has served.
func (hc HealthClient) Uptime() (time.Duration, error) {
	resp, err := hc.C.Call(vinci.Request{Service: HealthService, Op: "uptime"})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("%s", resp.Error)
	}
	secs, err := strconv.ParseInt(resp.Fields["seconds"], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("health: bad uptime: %w", err)
	}
	return time.Duration(secs) * time.Second, nil
}

// Status fetches the node's full health report.
func (hc HealthClient) Status() (NodeStatus, error) {
	resp, err := hc.C.Call(vinci.Request{Service: HealthService, Op: "status"})
	if err != nil {
		return NodeStatus{}, err
	}
	if !resp.OK {
		return NodeStatus{}, fmt.Errorf("%s", resp.Error)
	}
	st := NodeStatus{Node: resp.Fields["node"], Entities: -1}
	if v := resp.Fields["services"]; v != "" {
		st.Services = strings.Fields(v)
	}
	if v, ok := resp.Fields["entities"]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			st.Entities = n
		}
	}
	if secs, err := strconv.ParseInt(resp.Fields["seconds"], 10, 64); err == nil {
		st.Uptime = time.Duration(secs) * time.Second
	}
	if resp.Fields["degraded"] == "1" {
		st.Degraded = true
		st.DegradedReason = resp.Fields["degraded_reason"]
	}
	return st, nil
}

// Probe verifies a node is alive and serving before work is committed
// to it — the client-side gate run before mining against a remote
// store. It pings the health service and, when required services are
// named, checks each appears in the node's status report.
func Probe(c vinci.Client, required ...string) error {
	hc := HealthClient{C: c}
	if err := hc.Ping(); err != nil {
		return fmt.Errorf("health probe: %w", err)
	}
	if len(required) == 0 {
		return nil
	}
	st, err := hc.Status()
	if err != nil {
		return fmt.Errorf("health probe: %w", err)
	}
	serving := make(map[string]bool, len(st.Services))
	for _, s := range st.Services {
		serving[s] = true
	}
	for _, want := range required {
		if !serving[want] {
			return fmt.Errorf("health probe: node %s does not serve %q (serves %v)",
				st.Node, want, st.Services)
		}
	}
	return nil
}
