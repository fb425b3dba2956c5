package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// oneConn returns a client that holds at most one connection, so a run
// never has more than two open against the server: one for the ingest
// stream, one for reads.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// phase is what the measured phase observed. Latencies are in
// milliseconds; a failed operation contributes no latency sample.
type phase struct {
	ingestAck []float64 // due → 200, per ingest request
	visible   []float64 // ingest due → probe document listed
	query     []float64 // due → full body read
	genLag    []float64 // how late the generator sent on a free connection

	ingestSvc []float64 // send → ack per acked request, seconds
	ingestN   []int     // documents per acked request
	docsAcked int
	acked     []int // indices into stream.ingest
	queries   int   // query-mix requests sent
	probes    int   // visibility reads sent
	attempted int
	failed    int
	failures  []string // first few, for the report
	wall      time.Duration
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// post sends one ingest body and reports whether it was acked with 200.
func post(c *http.Client, base string, body []byte) (int, error) {
	resp, err := c.Post(base+"/api/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// pendingProbe is a visibility check waiting for the read connection.
type pendingProbe struct {
	probe
	due time.Time // the ingest request's due time
}

// spinWindow is how long before a due time sleepUntil stops sleeping
// and spins. Go's own timers round sleeps up to a millisecond, which
// would charge a cached 0.2 ms query a 1 ms generator delay; a direct
// nanosleep overshoots by ~0.1 ms here, and the short spin absorbs that.
const spinWindow = 150 * time.Microsecond

// sleepUntil blocks until t with sub-millisecond precision.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d <= spinWindow {
			for time.Now().Before(t) {
			}
			return
		}
		// The sleep is a blocking system call that keeps this goroutine's
		// scheduler slot; let whatever else is runnable there go first.
		runtime.Gosched()
		ts := syscall.NsecToTimespec(int64(time.Until(t) - spinWindow))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted or zero sleep is retried by the loop
	}
}

// drive runs the measured phase: the ingest stream on connection 1; on
// connection 2 the open-loop query mix and the visibility probes, which
// queue for that one connection. Open-loop requests are timed from
// their due time, so a stall is charged to every request it delays.
func drive(st *stream, base string) *phase {
	p, queries, probes := &phase{}, &phase{}, &phase{}
	ingestConn, readConn := oneConn(), oneConn()
	defer ingestConn.CloseIdleConnections()
	defer readConn.CloseIdleConnections()

	// Probes are handed over without ever blocking the ingest stream.
	probeCh := make(chan pendingProbe, len(st.ingest))
	var ingestDone atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for pr := range probeCh {
			checkVisible(readConn, base, pr, probes)
		}
	}()
	go func() {
		defer wg.Done()
		driveQueries(st, base, readConn, start, &ingestDone, queries)
	}()

	var prevDone time.Time
	for i := range st.ingest {
		r := &st.ingest[i]
		due := start.Add(r.due)
		if st.spec.closedLoop {
			due = time.Now()
		} else {
			sleepUntil(due)
		}
		send := time.Now()
		p.genLag = append(p.genLag, lateness(send, due, prevDone))
		status, err := post(ingestConn, base, r.body)
		done := time.Now()
		prevDone = done
		p.attempted++
		if err != nil || status != http.StatusOK {
			p.fail("ingest request %d: status %d err %v", i, status, err)
			continue
		}
		p.ingestAck = append(p.ingestAck, ms(done.Sub(due)))
		p.ingestSvc = append(p.ingestSvc, done.Sub(send).Seconds())
		p.ingestN = append(p.ingestN, len(r.docs))
		p.docsAcked += len(r.docs)
		p.acked = append(p.acked, i)
		if r.probe != nil {
			probeCh <- pendingProbe{probe: *r.probe, due: due}
		}
	}
	ingestDone.Store(true)
	close(probeCh)
	wg.Wait()
	p.wall = time.Since(start)

	p.visible, p.query = probes.visible, queries.query
	p.genLag = append(p.genLag, queries.genLag...)
	p.queries, p.probes = queries.queries, probes.probes
	for _, side := range []*phase{queries, probes} {
		p.attempted += side.attempted
		p.failed += side.failed
		p.failures = append(p.failures, side.failures...)
	}
	return p
}

// lateness is how late the generator sent a request that was due at due
// on a connection it last saw free at prevDone, in milliseconds. Time
// spent waiting for a busy connection is the server's, not the
// generator's, and is charged to the request's latency instead.
func lateness(send, due, prevDone time.Time) float64 {
	if prevDone.After(due) {
		due = prevDone
	}
	return ms(send.Sub(due))
}

// driveQueries sends the open-loop query mix. In a closed loop, where
// the ingest stream's own duration is what is measured, the (over-long)
// schedule is cut as soon as the ingest stream finishes.
func driveQueries(st *stream, base string, c *http.Client, start time.Time, ingestDone *atomic.Bool, p *phase) {
	var prevDone time.Time
	for _, q := range st.queries {
		due := start.Add(q.due)
		sleepUntil(due)
		if st.spec.closedLoop && ingestDone.Load() {
			return
		}
		send := time.Now()
		p.genLag = append(p.genLag, lateness(send, due, prevDone))
		p.attempted++
		p.queries++
		status := 0
		resp, err := c.Get(base + q.path)
		if err == nil {
			status = resp.StatusCode
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		prevDone = time.Now()
		if err != nil || status != http.StatusOK {
			p.fail("query %s: status %d err %v", q.path, status, err)
			continue
		}
		p.query = append(p.query, ms(prevDone.Sub(due)))
	}
}

// checkVisible is the visibility probe: the first read after the ack
// must list the probe document, or the tier's publish-before-ack
// contract was broken and the operation failed.
func checkVisible(c *http.Client, base string, pr pendingProbe, p *phase) {
	p.attempted++
	p.probes++
	var entries []struct {
		Doc string `json:"doc"`
	}
	err := getJSON(c, base+"/api/sentiment?name="+url.QueryEscape(pr.subject), &entries)
	done := time.Now()
	if err != nil {
		p.fail("visibility read for %s: %v", pr.docID, err)
		return
	}
	for _, e := range entries {
		if e.Doc == pr.docID {
			p.visible = append(p.visible, ms(done.Sub(pr.due)))
			return
		}
	}
	p.fail("probe document %s not listed under %q on the first read after its ack", pr.docID, pr.subject)
}

// percentile returns the q-quantile (0..1) of the samples by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// throughputWindow is the number of consecutive ingest requests one
// throughput sample covers: one checkpoint period (-checkpoint-every 8),
// so every window pays for exactly one checkpoint.
const throughputWindow = 8

// ingestThroughput is the documents acked per second of time the ingest
// connection spent waiting for acks, as the median over consecutive
// windows of throughputWindow requests: the rate the server sustains
// while it is ingesting, whatever the offered rate. The median over
// windows keeps the periodic cost every window pays (the checkpoint)
// and sheds the sandbox disk's bursts. A diagnostic: it follows the
// disk's mood too closely to gate on.
func (p *phase) ingestThroughput() float64 {
	var windows []float64
	for at := 0; at < len(p.ingestSvc); at += throughputWindow {
		end := min(at+throughputWindow, len(p.ingestSvc))
		if end-at < throughputWindow && at > 0 {
			break // a short last window would weigh the checkpoint wrongly
		}
		docs, busy := 0, 0.0
		for i := at; i < end; i++ {
			docs += p.ingestN[i]
			busy += p.ingestSvc[i]
		}
		windows = append(windows, float64(docs)/busy)
	}
	return median(windows)
}
