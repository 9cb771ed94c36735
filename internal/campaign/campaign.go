// Package campaign is the job subsystem that serves attack-campaign
// sweeps: submit a set of experiment runs, watch their progress, fetch a
// deterministic result body.
//
// Four properties define the design:
//
//   - *Bounded intake.* Submissions pass through a fixed-depth queue into
//     a fixed-size worker pool. A full queue rejects immediately
//     (ErrQueueFull → HTTP 429), never blocks the submitter — backpressure
//     is the caller's signal to go away, not an invitation to pile up.
//
//   - *Content-addressed results.* Every run is keyed by the SHA-256 of
//     (experiment name, seed, canonicalized params). The simulator is
//     deterministic by construction — same key, same bits, any worker
//     count, any node — so a completed run's record is cached and served
//     byte-identically to every later submission of the same key, without
//     re-simulating. The cache is tiered: a bounded in-memory map in
//     front of an optional crash-safe disk store (internal/store), with
//     single-flight coalescing preserved across the whole
//     memory-hit → disk-hit → compute promotion path. In-flight keys
//     coalesce: concurrent identical submissions share one execution,
//     and the followers count as cache hits.
//
//   - *Horizontal fan-out.* With a SweepExecutor configured (the fabric
//     layer, internal/fabric), a multi-run job splits into per-run
//     shards routed across the peer ring by consistent hashing, executed
//     with work-stealing, and reassembled index-ordered — the result
//     body is byte-identical to a single-node run.
//
//   - *Cooperative cancellation.* Each job owns a context that Cancel
//     fires. The context threads through registry.Experiment.Run into
//     runner.Map and runner.MapWithResource, so cancelling a running
//     grid experiment frees its worker at the next trial boundary
//     instead of after the whole sweep.
//
// Job lifecycle: queued → running → done | failed | cancelled. Every
// transition (and every per-run completion) appends an Event; subscribers
// replay the history and then follow live, which is what the HTTP layer
// streams as NDJSON.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/registry"
	"repro/internal/store"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors.
var (
	ErrQueueFull   = errors.New("campaign: submission queue full")
	ErrDraining    = errors.New("campaign: manager is draining")
	ErrNotFound    = errors.New("campaign: no such job")
	ErrNotFinished = errors.New("campaign: job has not finished")
	// ErrRunTimeout marks a run that exceeded Config.RunTimeout. It is a
	// distinct failed-state reason, not a cancellation: the job fails,
	// and the timed-out key is never cached (a rerun with more budget —
	// or on a faster node — may well succeed).
	ErrRunTimeout = errors.New("campaign: run exceeded its wall-clock timeout")
)

// RunSpec is one experiment run inside a campaign. Params may be partial
// and un-normalized; Submit resolves them against the registry schema.
type RunSpec struct {
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Params     map[string]string `json:"params,omitempty"`
}

// Spec is a campaign: an ordered list of runs. Without a fabric the
// runs execute sequentially on one worker; with a SweepExecutor they
// fan out as shards across the peer ring. Either way the result body
// lists the run records in submission order.
type Spec struct {
	Runs []RunSpec `json:"runs"`
}

// RunStatus is the externally visible state of one run of a job.
type RunStatus struct {
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	State      State  `json:"state"`
	// Cached is true when the run's record was served from a cache
	// layer (memory, disk, in-flight coalescing, or a peer's cache)
	// rather than simulated for this job.
	Cached bool `json:"cached"`
	// Tier is the cache layer that served the run (hit-mem, hit-disk,
	// miss, forward); empty until the run starts resolving.
	Tier  Tier   `json:"tier,omitempty"`
	Error string `json:"error,omitempty"`
}

// Progress is the live counter set of a job.
type Progress struct {
	Done      int `json:"done"`
	Total     int `json:"total"`
	CacheHits int `json:"cache_hits"`
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Cached is true when the whole job completed without simulating
	// anything: every run was served from a cache layer.
	Cached bool `json:"cached"`
	// CacheTier is the aggregate serving tier of a done job — the
	// "worst" tier across its runs (miss > forward > hit-disk >
	// hit-mem). Empty until the job is done.
	CacheTier Tier        `json:"cache_tier,omitempty"`
	Error     string      `json:"error,omitempty"`
	Runs      []RunStatus `json:"runs"`
	Created   time.Time   `json:"created"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
}

// Event is one entry of a job's progress stream.
type Event struct {
	Seq   int    `json:"seq"`
	Job   string `json:"job"`
	State State  `json:"state"`
	// Run/RunState/Cached/Tier describe a per-run transition; empty for
	// pure job-state events.
	Run      string   `json:"run,omitempty"`
	RunState State    `json:"run_state,omitempty"`
	Cached   bool     `json:"cached,omitempty"`
	Tier     Tier     `json:"tier,omitempty"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

// ResultBody is a finished job's deterministic result plus the metadata
// the HTTP layer serves it with. Body and ETag are computed exactly
// once, when the job finishes — a cache hit re-serves the stored bytes
// without re-marshaling anything.
type ResultBody struct {
	Body []byte
	// Cached is true when no run was simulated for this job.
	Cached bool
	// Tier is the aggregate cache tier (the X-Cache value).
	Tier Tier
	// ETag is the strong entity tag: the quoted hex SHA-256 of Body.
	ETag string
}

// Shard is one run of a sweep tagged with its position, so the fabric
// can reassemble results index-ordered regardless of which peer
// computed what.
type Shard struct {
	Index int
	Run   RunSpec // resolved: params canonical
	Key   string  // CacheKey of Run
}

// ShardResult is one shard's outcome as reported by a SweepExecutor.
type ShardResult struct {
	Rec json.RawMessage
	// Tier is the layer that served the shard from the submitting
	// node's perspective (TierForward for work executed by a peer).
	Tier Tier
	// Cached is true when no simulation happened anywhere for this
	// shard — locally or on the peer that answered the forward.
	Cached bool
	Err    error
}

// LocalRunFunc executes one shard on the local node; Manager.ServeRun
// is the implementation handed to the executor.
type LocalRunFunc func(ctx context.Context, rs RunSpec, key string) (json.RawMessage, Tier, error)

// SweepExecutor fans a multi-run job across the fabric as per-trial
// shards. Implementations must call started at most once and done
// exactly once per shard (from any goroutine), and must not return
// until every callback has been delivered. A non-nil return means the
// sweep itself aborted (typically ctx cancellation); per-shard
// experiment failures travel in ShardResult.Err instead.
type SweepExecutor interface {
	ExecuteSweep(ctx context.Context, shards []Shard, local LocalRunFunc,
		started func(i int, peer string), done func(i int, res ShardResult)) error
}

// job is the internal job record. All mutable fields are guarded by the
// manager's mutex.
type job struct {
	id     string
	spec   []RunSpec // params resolved to canonical form
	keys   []string  // cache key per run
	ctx    context.Context
	cancel context.CancelFunc

	state    State
	runs     []RunStatus
	progress Progress
	events   []Event
	watch    chan struct{} // closed and replaced on events while watched
	watched  bool          // a caller holds watch and may be blocked on it
	result   []byte
	etag     string
	tier     Tier
	cached   bool
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

// Config configures a Manager.
type Config struct {
	// Registry resolves and runs experiments. Required.
	Registry *registry.Registry
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submission queue (default 64). Submissions
	// beyond Workers in-flight + QueueDepth queued fail with ErrQueueFull.
	QueueDepth int
	// Store is the optional disk layer behind the in-memory result
	// cache: lookups go memory hit → disk hit → compute, completed
	// results persist across restarts.
	Store *store.Store
	// Sweep optionally fans multi-run jobs across fabric peers
	// (internal/fabric.Node implements it). Nil runs jobs sequentially
	// on the local worker.
	Sweep SweepExecutor
	// MemEntries bounds the in-memory result cache (default 65536
	// completed entries); the disk store backs whatever falls out.
	MemEntries int
	// JobRetention bounds how many finished jobs stay queryable
	// (default 1024). Beyond the cap the oldest-finished jobs are
	// forgotten — their status and result endpoints return not-found —
	// so a long-running daemon's job table cannot grow without bound.
	// Results themselves outlive the job record in the result cache.
	JobRetention int
	// RunTimeout bounds one run's wall-clock simulation time (default
	// 0: no limit) by cancelling the context the experiment runs under.
	// A run that returns an error after its deadline fires fails with
	// ErrRunTimeout — failing its job with that distinct reason — and
	// its result is never cached in any tier. A run that ignores its
	// context and finishes late without error succeeds and is cached
	// like any other: its record is deterministic and content-addressed,
	// and rejecting it would only make every resubmission re-simulate
	// and fail again.
	RunTimeout time.Duration
}

// memKey is one completed in-memory cache entry in completion order,
// for FIFO trimming of the memory tier.
type memKey struct {
	key string
	e   *cacheEntry
}

// Manager owns the queue, the worker pool, the job table and the
// tiered result cache.
type Manager struct {
	reg        *registry.Registry
	store      *store.Store
	exec       SweepExecutor
	queue      chan *job
	runTimeout time.Duration // 0 = unlimited
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	done     []string // terminal job ids in completion order, for retention trimming
	cache    map[string]*cacheEntry
	fifo     []memKey
	memCap   int
	jobCap   int
	nextID   int
	draining bool
}

// New starts a Manager with its worker pool.
func New(cfg Config) *Manager {
	if cfg.Registry == nil {
		panic("campaign: Config.Registry is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	memCap := cfg.MemEntries
	if memCap <= 0 {
		memCap = 65536
	}
	jobCap := cfg.JobRetention
	if jobCap <= 0 {
		jobCap = 1024
	}
	m := &Manager{
		reg:        cfg.Registry,
		store:      cfg.Store,
		exec:       cfg.Sweep,
		queue:      make(chan *job, depth),
		jobs:       make(map[string]*job),
		cache:      make(map[string]*cacheEntry),
		memCap:     memCap,
		jobCap:     jobCap,
		runTimeout: cfg.RunTimeout,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates a campaign against the registry, enqueues it, and
// returns the queued job's status. It never blocks: a full queue returns
// ErrQueueFull, a draining manager ErrDraining.
func (m *Manager) Submit(spec Spec) (JobStatus, error) {
	if len(spec.Runs) == 0 {
		return JobStatus{}, errors.New("campaign: empty campaign")
	}
	resolved := make([]RunSpec, len(spec.Runs))
	keys := make([]string, len(spec.Runs))
	for i, rs := range spec.Runs {
		r, key, err := m.ResolveRun(rs)
		if err != nil {
			return JobStatus{}, err
		}
		resolved[i], keys[i] = r, key
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec:    resolved,
		keys:    keys,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		watch:   make(chan struct{}),
		created: time.Now(),
	}
	j.runs = make([]RunStatus, len(resolved))
	for i := range resolved {
		j.runs[i] = RunStatus{Experiment: resolved[i].Experiment, Key: keys[i], State: StateQueued}
	}
	j.progress = Progress{Total: len(resolved)}
	// queued + running + terminal + one per run covers every lifecycle.
	j.events = make([]Event, 0, len(resolved)+3)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		cancel()
		return JobStatus{}, ErrDraining
	}
	m.nextID++
	j.id = "job-" + strconv.Itoa(m.nextID)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	// Fully-warm fast path: when every run is already a completed success
	// in the memory tier, the job finishes inside this critical section —
	// no queue slot, no worker handoff, no watcher round trip. That saves
	// two goroutine wakeups per cached campaign, which on a small host is
	// a large slice of the serving latency; it also means repeated warm
	// campaigns can never be bounced by a backlogged queue.
	if records := m.warmRecordsLocked(j.keys); records != nil {
		m.emitLocked(j, Event{State: StateQueued})
		m.completeWarmLocked(j, records)
		st := j.statusLocked()
		m.mu.Unlock()
		return st, nil
	}
	select {
	case m.queue <- j:
	default:
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		m.mu.Unlock()
		cancel()
		return JobStatus{}, ErrQueueFull
	}
	m.emitLocked(j, Event{State: StateQueued})
	st := j.statusLocked()
	m.mu.Unlock()
	return st, nil
}

// warmRecordsLocked returns every run's record when all keys are ready
// successes in the memory tier, nil otherwise. Pending leaders, aborted
// entries, and cached deterministic failures all disqualify — those
// paths carry waiting or error semantics that belong to the workers.
func (m *Manager) warmRecordsLocked(keys []string) []json.RawMessage {
	records := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		e := m.cache[k]
		if e == nil {
			return nil
		}
		select {
		case <-e.done:
		default:
			return nil // a leader is still computing this key
		}
		if e.aborted || e.err != nil {
			return nil
		}
		records[i] = e.rec
	}
	return records
}

// completeWarmLocked drives a fully-cached job through its whole
// lifecycle in one step, emitting the same event sequence the worker
// path produces.
func (m *Manager) completeWarmLocked(j *job, records []json.RawMessage) {
	j.state = StateRunning
	j.started = time.Now()
	m.emitLocked(j, Event{State: StateRunning})
	for i := range j.runs {
		j.runs[i].State = StateDone
		j.runs[i].Cached = true
		j.runs[i].Tier = TierMem
		j.progress.Done++
		j.progress.CacheHits++
		m.emitLocked(j, Event{
			Run: j.spec[i].Experiment, RunState: StateDone,
			Cached: true, Tier: TierMem, State: j.state,
		})
	}
	body := assembleBody(records)
	sum := sha256.Sum256(body)
	j.result = body
	j.etag = `"` + hex.EncodeToString(sum[:]) + `"`
	j.tier = TierMem
	j.cached = true
	m.finalizeLocked(j, StateDone, nil)
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return j.statusLocked(), nil
}

// List returns the status of every retained job in submission order.
// Finished jobs beyond the JobRetention cap have been forgotten and no
// longer appear.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j.statusLocked())
		}
	}
	return out
}

// Cancel fires a job's context. A queued job is finalized as cancelled
// immediately; a running job transitions when its experiment observes the
// context (grid experiments at the next trial dispatch). Cancelling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	j.cancel()
	if j.state == StateQueued {
		m.finalizeLocked(j, StateCancelled, context.Canceled)
	}
	st := j.statusLocked()
	m.mu.Unlock()
	return st, nil
}

// Result returns a finished job's deterministic result body with its
// serving metadata. ErrNotFinished while the job is queued/running or
// cancelled; the job's own error if it failed.
func (m *Manager) Result(id string) (ResultBody, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ResultBody{}, ErrNotFound
	}
	switch j.state {
	case StateDone:
		return ResultBody{Body: j.result, Cached: j.cached, Tier: j.tier, ETag: j.etag}, nil
	case StateFailed:
		return ResultBody{}, j.err
	default:
		return ResultBody{}, ErrNotFinished
	}
}

// EventsSince returns the events of a job from sequence number from
// onwards, a channel that closes when a further event arrives, and
// whether the job is terminal. Callers loop: drain, emit, wait on the
// channel (or their own context), repeat until terminal with no backlog.
func (m *Manager) EventsSince(id string, from int) ([]Event, <-chan struct{}, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, false, ErrNotFound
	}
	var evs []Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	j.watched = true // the caller may block on the channel we hand out
	return evs, j.watch, j.state.Terminal(), nil
}

// Drain stops intake (new Submits fail with ErrDraining), lets the
// workers finish every queued and running job, and returns when the pool
// is idle or ctx expires. Fabric deployments drain through
// fabric.Node.Drain, which gates forwarded-in work first and then calls
// this.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker executes jobs from the queue until it closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job through its lifecycle.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		m.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		m.finalizeLocked(j, StateCancelled, j.ctx.Err())
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	m.emitLocked(j, Event{State: StateRunning})
	m.mu.Unlock()

	records := make([]json.RawMessage, len(j.spec))
	var err error
	if m.exec != nil {
		err = m.runSweep(j, records)
	} else {
		err = m.runSequential(j, records)
	}
	if err != nil {
		if j.ctx.Err() != nil || errors.Is(err, context.Canceled) {
			m.finalize(j, StateCancelled, context.Canceled)
		} else {
			m.finalize(j, StateFailed, err)
		}
		return
	}

	// Reassemble index-ordered: the body lists records in submission
	// order no matter which tier — or which peer — produced each one.
	body := assembleBody(records)
	sum := sha256.Sum256(body)
	m.mu.Lock()
	j.result = body
	j.etag = `"` + hex.EncodeToString(sum[:]) + `"`
	j.tier = aggregateTier(j.runs)
	j.cached = j.tier != TierMiss
	m.finalizeLocked(j, StateDone, nil)
	m.mu.Unlock()
}

// runSequential executes the runs in order on this worker — the
// single-node path.
func (m *Manager) runSequential(j *job, records []json.RawMessage) error {
	for i := range j.spec {
		if err := j.ctx.Err(); err != nil {
			return err
		}
		m.setRunState(j, i, StateRunning, false, "", nil)
		rec, tier, err := m.ServeRun(j.ctx, j.spec[i], j.keys[i])
		cached := tier == TierMem || tier == TierDisk
		if err != nil {
			if j.ctx.Err() != nil || errors.Is(err, context.Canceled) {
				m.setRunState(j, i, StateCancelled, false, "", err)
				return context.Canceled
			}
			m.setRunState(j, i, StateFailed, cached, tier, err)
			return fmt.Errorf("campaign: run %q: %w", j.spec[i].Experiment, err)
		}
		records[i] = rec
		m.setRunState(j, i, StateDone, cached, tier, nil)
	}
	return nil
}

// runSweep fans the job's runs across the fabric as shards. Per-shard
// experiment failures fail the job (like the sequential path); shards
// the executor aborted after an earlier failure surface as cancelled
// runs without overriding the first real error.
func (m *Manager) runSweep(j *job, records []json.RawMessage) error {
	shards := make([]Shard, len(j.spec))
	for i := range j.spec {
		shards[i] = Shard{Index: i, Run: j.spec[i], Key: j.keys[i]}
	}
	var (
		errOnce  sync.Once
		firstErr error
	)
	sweepErr := m.exec.ExecuteSweep(j.ctx, shards, m.ServeRun,
		func(i int, peer string) {
			m.setRunState(j, i, StateRunning, false, "", nil)
		},
		func(i int, res ShardResult) {
			if res.Err != nil {
				if errors.Is(res.Err, context.Canceled) {
					m.setRunState(j, i, StateCancelled, false, "", res.Err)
					return
				}
				m.setRunState(j, i, StateFailed, res.Cached, res.Tier, res.Err)
				errOnce.Do(func() {
					firstErr = fmt.Errorf("campaign: run %q: %w", j.spec[i].Experiment, res.Err)
				})
				return
			}
			records[i] = res.Rec
			m.setRunState(j, i, StateDone, res.Cached, res.Tier, nil)
		})
	if firstErr != nil {
		return firstErr
	}
	if sweepErr != nil {
		return sweepErr
	}
	return j.ctx.Err()
}

// aggregateTier folds per-run tiers into the job-level X-Cache value:
// the worst tier wins (miss > forward > hit-disk > hit-mem).
func aggregateTier(runs []RunStatus) Tier {
	rank := func(t Tier) int {
		switch t {
		case TierMiss:
			return 3
		case TierForward:
			return 2
		case TierDisk:
			return 1
		default:
			return 0
		}
	}
	agg := TierMem
	for i := range runs {
		t := runs[i].Tier
		if !runs[i].Cached {
			t = TierMiss
		}
		if rank(t) > rank(agg) {
			agg = t
		}
	}
	return agg
}

// setRunState records a per-run transition and emits its event.
func (m *Manager) setRunState(j *job, i int, s State, cached bool, tier Tier, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.runs[i].State = s
	j.runs[i].Cached = cached
	j.runs[i].Tier = tier
	if err != nil {
		j.runs[i].Error = err.Error()
	}
	if s == StateDone {
		j.progress.Done++
		if cached {
			j.progress.CacheHits++
		}
	}
	ev := Event{Run: j.spec[i].Experiment, RunState: s, Cached: cached, Tier: tier, State: j.state}
	if err != nil {
		ev.Error = err.Error()
	}
	m.emitLocked(j, ev)
}

func (m *Manager) finalize(j *job, s State, err error) {
	m.mu.Lock()
	m.finalizeLocked(j, s, err)
	m.mu.Unlock()
}

// finalizeLocked moves a job to a terminal state exactly once.
func (m *Manager) finalizeLocked(j *job, s State, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.err = err
	j.finished = time.Now()
	j.cancel() // release the context's resources in every terminal path
	ev := Event{State: s, Cached: j.cached, Tier: j.tier}
	if err != nil {
		ev.Error = err.Error()
	}
	m.emitLocked(j, ev)
	m.retireLocked(j)
}

// retireLocked records a terminal job for retention and forgets the
// oldest finished jobs beyond the cap, so the job table — result bodies,
// event logs and all — stays bounded no matter how long the daemon runs.
func (m *Manager) retireLocked(j *job) {
	// The resolved spec (with its canonical params maps) and key list
	// only matter while the job executes; RunStatus carries what status
	// queries need. Dropping them here keeps retained jobs light.
	j.spec, j.keys = nil, nil
	m.done = append(m.done, j.id)
	for len(m.done) > m.jobCap {
		delete(m.jobs, m.done[0])
		m.done = m.done[1:]
	}
	// m.order keeps ids of forgotten jobs until it is mostly tombstones,
	// then is rebuilt; List skips ids no longer in the table either way.
	if len(m.order) > 2*len(m.jobs)+64 {
		live := make([]string, 0, len(m.jobs))
		for _, id := range m.order {
			if _, ok := m.jobs[id]; ok {
				live = append(live, id)
			}
		}
		m.order = live
	}
}

// emitLocked appends an event (stamping seq, job id and live progress)
// and wakes every watcher. The watch channel is only cycled while some
// caller actually holds it (EventsSince sets watched): waking nobody is
// free, and a watcher always drains the backlog before blocking again,
// so no event can be missed.
func (m *Manager) emitLocked(j *job, ev Event) {
	ev.Seq = len(j.events)
	ev.Job = j.id
	ev.Progress = j.progress
	j.events = append(j.events, ev)
	if j.watched {
		close(j.watch)
		j.watch = make(chan struct{})
		j.watched = false
	}
}

// statusLocked snapshots a job.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Progress:  j.progress,
		Cached:    j.cached,
		CacheTier: j.tier,
		Runs:      append([]RunStatus(nil), j.runs...),
		Created:   j.created,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
