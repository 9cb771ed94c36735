package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/store"
)

const (
	fleetNodes   = 3
	fleetClients = 2
	// The read working set is warmSweeps×sweepRuns = 768 runs of about
	// 700 bytes, about 256 owned per node. The memory tier holds 64 of
	// a node's runs and the store's hot map about 180, so reads reach
	// every tier and every store path.
	fleetMemEntries = 64
	fleetHotBytes   = 128 << 10
	// fleetPass is the number of sweeps in one pass (wall_s).
	fleetPass = 20
)

var tiers = []string{"hit-mem", "hit-disk", "forward", "miss"}

// fleetNode is one voltbootd wired as cmd/voltbootd wires it, serving
// on a loopback listener.
type fleetNode struct {
	url    string
	st     *store.Store
	node   *fabric.Node
	srv    *http.Server
	served chan struct{}
}

// sweep is one completed client request with what the service reported.
type sweep struct {
	job
	tier      string // the job's aggregate cache tier
	runTiers  []string
	cached    int
	queueWait float64 // ms; negative when the job never queued
}

type expected struct{ sha, etag string }

// serviceFleet is a 3-node fleet in this process driven by a closed
// loop of 2 clients.
type serviceFleet struct {
	cfg     *config
	warm    [][]runSpec
	want    []expected // per warm sweep, from the last set-up
	prev    []expected // per warm sweep, from the set-up before
	root    string
	rep     int
	nodes   []*fleetNode
	client  *http.Client
	streams []*stream

	mu     sync.Mutex
	sweeps []sweep // of the last window
	before counters
	after  counters
}

func newServiceFleet(cfg *config) *serviceFleet {
	return &serviceFleet{
		cfg:  cfg,
		warm: warmSet(cfg.seed),
		root: filepath.Join(workDir, "fleet-"+strconv.Itoa(os.Getpid())),
	}
}

func (f *serviceFleet) passLen() int { return fleetPass }

func (f *serviceFleet) setup() error {
	f.rep++
	if err := f.start(filepath.Join(f.root, strconv.Itoa(f.rep))); err != nil {
		return err
	}
	f.streams = make([]*stream, fleetClients)
	for c := range f.streams {
		f.streams[c] = newStream(f.cfg.seed, c)
	}
	// Warm-up: write the read working set, both clients in parallel.
	// Every set-up must produce the same bytes as the one before.
	f.prev, f.want = f.want, make([]expected, len(f.warm))
	var wg sync.WaitGroup
	errs := make([]error, fleetClients)
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(f.warm); i += fleetClients {
				_, body, etag, err := f.submit(i%fleetNodes, f.warm[i])
				if err == nil {
					err = checkWrite(f.warm[i], body)
				}
				if err == nil && f.prev != nil && (f.prev[i] != expected{sha256Hex(body), etag}) {
					err = errors.New("warm sweep bytes differ from the previous set-up")
				}
				f.cfg.ck.op(fmt.Sprintf("warm sweep %d", i), err)
				if err != nil {
					errs[c] = err
					return
				}
				f.want[i] = expected{sha256Hex(body), etag}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// start opens the stores and brings up the fleet under dir. On error
// the caller's teardown releases whatever started.
func (f *serviceFleet) start(dir string) (err error) {
	reg := timedRegistry(f.cfg.tr)
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetClients}}
	lns := make([]net.Listener, fleetNodes)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				_ = ln.Close() // not handed to a server
			}
		}
	}()
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
	}
	ids := []string{"a", "b", "c"}
	urls := make([]string, len(lns))
	for i, ln := range lns {
		urls[i] = "http://" + ln.Addr().String()
	}
	f.nodes = nil
	for i := range lns {
		var peers []fabric.Peer
		for j := range lns {
			if j != i {
				peers = append(peers, fabric.Peer{ID: ids[j], Addr: urls[j]})
			}
		}
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, ids[i]), HotBytes: fleetHotBytes})
		if err != nil {
			return err
		}
		node, err := fabric.New(fabric.Config{Self: ids[i], Peers: peers, Fingerprint: reg.Fingerprint()})
		if err != nil {
			_ = st.Close()
			return err
		}
		mgr := campaign.New(campaign.Config{
			Registry:   reg,
			Workers:    runtime.GOMAXPROCS(0),
			QueueDepth: 64,
			MemEntries: fleetMemEntries,
			Store:      st,
			Sweep:      &timedSweep{inner: node, tr: f.cfg.tr},
		})
		node.Attach(mgr)
		n := &fleetNode{
			url: urls[i], st: st, node: node,
			srv:    &http.Server{Handler: api.New(mgr, reg, node)},
			served: make(chan struct{}),
		}
		go func(ln net.Listener) {
			defer close(n.served)
			_ = n.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
		}(lns[i])
		lns[i] = nil
		f.nodes = append(f.nodes, n)
	}
	return nil
}

// teardown drains every node, stops its listener, closes its store and
// removes the fleet's files.
func (f *serviceFleet) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, n := range f.nodes {
		_ = n.node.Drain(ctx) // best effort: the fleet is discarded
	}
	for _, n := range f.nodes {
		// Close, not Shutdown: every request has completed, and Shutdown
		// would wait up to 5 s for connections a transport dialed but
		// never used.
		_ = n.srv.Close()
		<-n.served
		_ = n.st.Close()
	}
	f.nodes = nil
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections() // the fabric's forward client
	_ = os.RemoveAll(f.root)
}

// submit sends one wait:true sweep to node i and fetches its result.
func (f *serviceFleet) submit(i int, runs []runSpec) (campaign.JobStatus, []byte, string, error) {
	var st campaign.JobStatus
	req, err := json.Marshal(struct {
		Runs []runSpec `json:"runs"`
		Wait bool      `json:"wait"`
	}{runs, true})
	if err != nil {
		return st, nil, "", err
	}
	url := f.nodes[i].url
	resp, err := f.client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		return st, nil, "", err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return st, nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return st, nil, "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, nil, "", fmt.Errorf("submit: %w", err)
	}
	if st.State != campaign.StateDone {
		return st, nil, "", fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	resp, err = f.client.Get(url + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return st, nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return st, nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return st, nil, "", fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if want := `"` + sha256Hex(body) + `"`; etag != want {
		return st, nil, "", fmt.Errorf("ETag %s does not match body sha256 %s", etag, want)
	}
	return st, body, etag, nil
}

// checkWrite verifies that a result body holds one record per run, in
// order, each naming its run and carrying output.
func checkWrite(runs []runSpec, body []byte) error {
	var doc struct {
		Runs []struct {
			Experiment string `json:"experiment"`
			Seed       uint64 `json:"seed"`
			Output     string `json:"output"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("result body: %w", err)
	}
	if len(doc.Runs) != len(runs) {
		return fmt.Errorf("%d records for %d runs", len(doc.Runs), len(runs))
	}
	for i, r := range doc.Runs {
		if r.Experiment != runs[i].Experiment || r.Seed != runs[i].Seed || r.Output == "" {
			return fmt.Errorf("record %d is %s/%d, want %s/%d with output",
				i, r.Experiment, r.Seed, runs[i].Experiment, runs[i].Seed)
		}
	}
	return nil
}

func (f *serviceFleet) measure(d time.Duration) (*window, error) {
	f.before = f.counters()
	win := &window{start: time.Now()}
	deadline := win.start.Add(d)
	f.sweeps = nil
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for node := c; time.Now().Before(deadline); node = (node + 1) % fleetNodes {
				f.client1(c, node)
			}
		}(c)
	}
	wg.Wait()
	win.end = time.Now()
	f.after = f.counters()
	for _, s := range f.sweeps {
		win.jobs = append(win.jobs, s.job)
	}
	return win, nil
}

// client1 sends client c's next request to node and records it.
func (f *serviceFleet) client1(c, node int) {
	rq := f.streams[c].next()
	runs, class := rq.runs, "write"
	if rq.read {
		runs, class = f.warm[rq.warm], "read"
	}
	_, endSpan := f.cfg.tr.begin(context.Background(), "sweep."+class)
	t := time.Now()
	st, body, etag, err := f.submit(node, runs)
	end := time.Now()
	endSpan()
	if err == nil {
		if rq.read {
			if got := (expected{sha256Hex(body), etag}); got != f.want[rq.warm] {
				err = fmt.Errorf("read of warm sweep %d: body sha256/ETag %v, written %v", rq.warm, got, f.want[rq.warm])
			}
		} else {
			err = checkWrite(runs, body)
		}
	}
	f.cfg.ck.op(class+" sweep", err)
	if err != nil {
		return
	}
	s := sweep{job: job{class: class, start: t, end: end}, tier: string(st.CacheTier), queueWait: -1}
	for _, r := range st.Runs {
		s.runTiers = append(s.runTiers, string(r.Tier))
		if r.Cached {
			s.cached++
		}
	}
	if st.Started != nil {
		s.queueWait = float64(st.Started.Sub(st.Created)) / 1e6
	}
	f.mu.Lock()
	f.sweeps = append(f.sweeps, s)
	f.mu.Unlock()
}

// counters sums the stores' and fabric nodes' counters over the fleet.
type counters struct {
	store  store.Stats
	fabric fabric.NodeStats
}

func (f *serviceFleet) counters() counters {
	var c counters
	for _, n := range f.nodes {
		s := n.st.Stats()
		c.store.Gets += s.Gets
		c.store.HotHits += s.HotHits
		c.store.DiskHits += s.DiskHits
		c.store.Misses += s.Misses
		c.store.Puts += s.Puts
		fs := n.node.Status().Stats
		c.fabric.ForwardedOut += fs.ForwardedOut
		c.fabric.ForwardedIn += fs.ForwardedIn
		c.fabric.Steals += fs.Steals
		c.fabric.Handbacks += fs.Handbacks
	}
	return c
}

func (f *serviceFleet) layerMetrics(_ *window, m metrics) {
	runs := map[string]float64{}
	byTier := map[string][]float64{}
	var waits []float64
	var total, cached float64
	lat := map[string][]float64{}
	for _, s := range f.sweeps {
		for _, t := range s.runTiers {
			runs[t]++
			total++
		}
		cached += float64(s.cached)
		byTier[s.tier] = append(byTier[s.tier], s.ms())
		lat[s.class] = append(lat[s.class], s.ms())
		if s.queueWait >= 0 {
			waits = append(waits, s.queueWait)
		}
	}
	for _, t := range tiers {
		m.set("campaign.runs."+t, runs[t], "count")
		m.set("api.latency."+t+".p50_ms", orZero(median(byTier[t])), "ms")
	}
	m.set("campaign.hit_ratio", ratio(cached, total), "ratio")
	m.set("campaign.queue_wait.p50_ms", orZero(median(waits)), "ms")
	m.set("campaign.queue_wait.p99_ms", orZero(tailOrMedian(waits)), "ms")
	for _, class := range []string{"read", "write"} {
		m.set("service."+class+"_p50_ms", orZero(median(lat[class])), "ms")
		m.set("service."+class+"_p99_ms", orZero(tailOrMedian(lat[class])), "ms")
		m.set("service."+class+"s", float64(len(lat[class])), "count")
	}
	st := f.after.store
	b := f.before.store
	gets := float64(st.Gets - b.Gets)
	hot, disk := float64(st.HotHits-b.HotHits), float64(st.DiskHits-b.DiskHits)
	m.set("store.gets", gets, "count")
	m.set("store.hot_hits", hot, "count")
	m.set("store.disk_hits", disk, "count")
	m.set("store.misses", float64(st.Misses-b.Misses), "count")
	m.set("store.puts", float64(st.Puts-b.Puts), "count")
	m.set("store.hit_ratio", ratio(hot+disk, gets), "ratio")
	fa, fb := f.after.fabric, f.before.fabric
	m.set("fabric.forwarded_out", float64(fa.ForwardedOut-fb.ForwardedOut), "count")
	m.set("fabric.forwarded_in", float64(fa.ForwardedIn-fb.ForwardedIn), "count")
	m.set("fabric.steals", float64(fa.Steals-fb.Steals), "count")
	m.set("fabric.handbacks", float64(fa.Handbacks-fb.Handbacks), "count")
	m.set("fabric.sweep.p50_ms", orZero(median(f.cfg.tr.durations("fabric.sweep"))), "ms")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero maps the NaN of an empty sample to 0.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// timedSweep is the campaign.SweepExecutor the fleet's managers get: it
// times each fabric sweep around the node that executes it.
type timedSweep struct {
	inner campaign.SweepExecutor
	tr    *tracer
}

func (s *timedSweep) ExecuteSweep(ctx context.Context, shards []campaign.Shard, local campaign.LocalRunFunc,
	started func(int, string), done func(int, campaign.ShardResult)) error {
	ctx, end := s.tr.begin(ctx, "fabric.sweep")
	defer end()
	return s.inner.ExecuteSweep(ctx, shards, local, started, done)
}
