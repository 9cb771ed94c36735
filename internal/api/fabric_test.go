package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/store"
)

// fleetExperiments builds one node's registry: "echo" is a pure function
// of (seed, params) with a per-node simulation counter, so the tests can
// prove both byte-identity (same bytes from any node) and work placement
// (who actually simulated).
func fleetExperiments(sims *atomic.Int64) *registry.Registry {
	return registry.New(&registry.Experiment{
		Name: "echo", Doc: "pure function of seed", ArtifactKinds: []string{"text"},
		Params: []registry.ParamSpec{{Name: "temps", Kind: registry.FloatListKind, Default: "25,0"}},
		Run: func(_ context.Context, req registry.Request) (*registry.Result, error) {
			sims.Add(1)
			return &registry.Result{
				Text:      fmt.Sprintf("echo seed=%d temps=%s\n", req.Seed, req.Params["temps"]),
				Artifacts: []registry.Artifact{{Name: "echo.bin", Data: []byte{0xAA, byte(req.Seed)}}},
			}, nil
		},
	})
}

// fleetNode is one in-process voltbootd: registry → store → fabric node
// → manager → HTTP server, all real except the listener.
type fleetNode struct {
	id   string
	ts   *httptest.Server
	mgr  *campaign.Manager
	node *fabric.Node
	sims *atomic.Int64
}

// startFleet boots n nodes that know each other only by HTTP address.
// dirs optionally pins each node's store directory (for restart tests);
// nil runs the fleet memory+disk over fresh temp dirs.
func startFleet(t testing.TB, n int, dirs []string) []*fleetNode {
	t.Helper()
	return startFleetReg(t, n, dirs, nil)
}

// startFleetReg is startFleet with the per-node registry pluggable; a
// nil maker uses the synthetic echo catalog.
func startFleetReg(t testing.TB, n int, dirs []string, mkReg func() *registry.Registry) []*fleetNode {
	t.Helper()
	if dirs == nil {
		dirs = make([]string, n)
		for i := range dirs {
			dirs[i] = t.TempDir()
		}
	}
	nodes := make([]*fleetNode, n)
	// Listeners first: every node needs every address before anything
	// serves, so the servers start unstarted and get handlers later.
	for i := range nodes {
		nodes[i] = &fleetNode{
			id:   fmt.Sprintf("peer-%d", i),
			ts:   httptest.NewUnstartedServer(http.NotFoundHandler()),
			sims: &atomic.Int64{},
		}
	}
	for i, fn := range nodes {
		reg := fleetExperiments(fn.sims)
		if mkReg != nil {
			reg = mkReg()
		}
		st, err := store.Open(store.Options{Dir: dirs[i]})
		if err != nil {
			t.Fatal(err)
		}
		var peers []fabric.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, fabric.Peer{
					ID: other.id, Addr: "http://" + other.ts.Listener.Addr().String(),
				})
			}
		}
		node, err := fabric.New(fabric.Config{
			Self: fn.id, Peers: peers, Fingerprint: reg.Fingerprint(), Streams: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr := campaign.New(campaign.Config{
			Registry: reg, Workers: 2, QueueDepth: 32, Store: st, Sweep: node,
		})
		node.Attach(mgr)
		fn.mgr, fn.node = mgr, node
		fn.ts.Config.Handler = New(mgr, reg, node)
		fn.ts.Start()
		t.Cleanup(func() {
			fn.ts.Close()
			_ = mgr.Drain(context.Background())
			_ = st.Close()
		})
	}
	return nodes
}

// sweepBody builds a wait:true submission over seeds 0..runs-1.
func sweepBody(runs int) string {
	var b strings.Builder
	b.WriteString(`{"wait":true,"runs":[`)
	for i := 0; i < runs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"experiment":"echo","seed":%d}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// submitWait POSTs a wait:true campaign and fetches its result body.
func submitWait(t testing.TB, baseURL, body string) (campaign.JobStatus, []byte, *http.Response) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st campaign.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != campaign.StateDone {
		t.Fatalf("submit: %d, state %s (%s)", resp.StatusCode, st.State, st.Error)
	}
	rresp, err := http.Get(baseURL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	rbody, err := io.ReadAll(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", rresp.StatusCode, rbody)
	}
	return st, rbody, rresp
}

// TestFabricShardedSweepByteIdentical is the tentpole contract, run for
// 3 and 5 peers under -race: a grid sweep fans out across the ring with
// work-stealing, every shard is simulated exactly once somewhere, real
// forwarding happened, and the reassembled body (and its ETag) is
// byte-identical to a single standalone node running the same campaign.
func TestFabricShardedSweepByteIdentical(t *testing.T) {
	const runs = 24
	body := sweepBody(runs)

	// Reference: one standalone node, no fabric.
	var soloSims atomic.Int64
	soloReg := fleetExperiments(&soloSims)
	soloMgr := campaign.New(campaign.Config{Registry: soloReg, Workers: 2, QueueDepth: 32})
	soloTS := httptest.NewServer(New(soloMgr, soloReg, nil))
	t.Cleanup(func() {
		soloTS.Close()
		_ = soloMgr.Drain(context.Background())
	})
	_, soloBody, soloResp := submitWait(t, soloTS.URL, body)

	for _, peers := range []int{3, 5} {
		t.Run(fmt.Sprintf("peers=%d", peers), func(t *testing.T) {
			fleet := startFleet(t, peers, nil)
			_, gotBody, gotResp := submitWait(t, fleet[0].ts.URL, body)

			if !bytes.Equal(gotBody, soloBody) {
				t.Fatalf("sharded body differs from single-node body:\n%s\nvs\n%s", gotBody, soloBody)
			}
			if se, ge := soloResp.Header.Get("ETag"), gotResp.Header.Get("ETag"); se != ge {
				t.Fatalf("ETag differs: solo %s, fleet %s", se, ge)
			}
			var total int64
			for _, fn := range fleet {
				total += fn.sims.Load()
			}
			if total != runs {
				t.Fatalf("fleet simulated %d runs total, want exactly %d", total, runs)
			}
			if own := fleet[0].sims.Load(); own == runs {
				t.Fatal("submitting node simulated everything: no distribution happened")
			}
			if st := fleet[0].node.Status(); st.Stats.ForwardedOut == 0 {
				t.Fatalf("no forwards recorded: %+v", st.Stats)
			}
		})
	}
}

// glitchSweepBody builds a wait:true glitch-search campaign over seeds
// 0..runs-1 with a small explicit grid, so the sweep is fast but every
// run still Monte-Carlos real glitched secure-boot trials.
func glitchSweepBody(runs int) string {
	var b strings.Builder
	b.WriteString(`{"wait":true,"runs":[`)
	for i := 0; i < runs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"experiment":"glitch-search","seed":%d,"params":{`, i)
		b.WriteString(`"offsets":"3,4,5","widths":"1,2","depths":"0.30","trials":"4"}}`)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestFabricGlitchSearchByteIdentical runs the real glitch-search
// campaign through the whole distributed stack: a 3-node fleet serving
// the full experiment catalog shards a seed sweep (disk store, work
// placement, HTTP reassembly), and the reassembled body — success-map
// JSON artifacts included — is byte-identical to one standalone node
// computing the same campaign.
func TestFabricGlitchSearchByteIdentical(t *testing.T) {
	const runs = 6
	body := glitchSweepBody(runs)

	soloReg := registry.Default()
	soloMgr := campaign.New(campaign.Config{Registry: soloReg, Workers: 2, QueueDepth: 32})
	soloTS := httptest.NewServer(New(soloMgr, soloReg, nil))
	t.Cleanup(func() {
		soloTS.Close()
		_ = soloMgr.Drain(context.Background())
	})
	_, soloBody, soloResp := submitWait(t, soloTS.URL, body)
	if !bytes.Contains(soloBody, []byte("glitch_success_map.json")) {
		t.Fatalf("campaign output carries no success-map artifact:\n%s", soloBody)
	}

	fleet := startFleetReg(t, 3, nil, registry.Default)
	_, gotBody, gotResp := submitWait(t, fleet[0].ts.URL, body)
	if !bytes.Equal(gotBody, soloBody) {
		t.Fatalf("sharded glitch-search body differs from single-node body:\n%s\nvs\n%s", gotBody, soloBody)
	}
	if se, ge := soloResp.Header.Get("ETag"), gotResp.Header.Get("ETag"); se != ge {
		t.Fatalf("ETag differs: solo %s, fleet %s", se, ge)
	}
	if st := fleet[0].node.Status(); st.Stats.ForwardedOut == 0 {
		t.Fatalf("no forwards recorded: %+v", st.Stats)
	}
}

// TestFabricRestartServesFromDisk: a fleet computes a sweep, every node
// restarts (fresh processes over the same store directories), and the
// same sweep is answered byte-identically with zero re-simulation —
// every shard comes off some peer's disk.
func TestFabricRestartServesFromDisk(t *testing.T) {
	const runs = 18
	body := sweepBody(runs)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}

	fleet1 := startFleet(t, 3, dirs)
	_, body1, resp1 := submitWait(t, fleet1[0].ts.URL, body)
	for _, fn := range fleet1 {
		fn.ts.Close()
		if err := fn.mgr.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	fleet2 := startFleet(t, 3, dirs)
	st2, body2, resp2 := submitWait(t, fleet2[0].ts.URL, body)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("post-restart body differs:\n%s\nvs\n%s", body1, body2)
	}
	if e1, e2 := resp1.Header.Get("ETag"), resp2.Header.Get("ETag"); e1 != e2 {
		t.Fatalf("post-restart ETag differs: %s vs %s", e1, e2)
	}
	if !st2.Cached {
		t.Fatal("post-restart sweep not marked cached")
	}
	var total int64
	for _, fn := range fleet2 {
		total += fn.sims.Load()
	}
	if total != 0 {
		t.Fatalf("restarted fleet re-simulated %d runs, want 0", total)
	}
}

// TestFabricDrainHandback is the drain-coverage contract over HTTP: a
// drained peer answers forwarded shards with 503, the submitting node
// hands them back and computes them locally, and the sweep still
// completes with the right bytes.
func TestFabricDrainHandback(t *testing.T) {
	const runs = 12
	body := sweepBody(runs)
	fleet := startFleet(t, 3, nil)

	// Reference bytes from the healthy fleet.
	_, want, _ := submitWait(t, fleet[0].ts.URL, body)

	// Drain peers 1 and 2: every remote shard of the next sweep on a
	// *fresh* fleet must be handed back. Restart the fleet to drop the
	// populated caches so the handback path really computes.
	fleet2 := startFleet(t, 3, nil)
	for _, fn := range fleet2[1:] {
		if err := fn.node.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	_, got, _ := submitWait(t, fleet2[0].ts.URL, body)
	if !bytes.Equal(got, want) {
		t.Fatalf("handback body differs:\n%s\nvs\n%s", got, want)
	}
	if sims := fleet2[0].sims.Load(); sims != runs {
		t.Fatalf("submitting node simulated %d, want all %d after handback", sims, runs)
	}
	if st := fleet2[0].node.Status(); st.Stats.Handbacks == 0 {
		t.Fatalf("no handbacks recorded: %+v", st.Stats)
	}
}

// TestFabricFingerprintMismatch: a peer running a different catalog
// rejects forwards with 409; the sender marks it incompatible and
// computes locally, and the sweep still completes correctly.
func TestFabricFingerprintMismatch(t *testing.T) {
	const runs = 12
	fleet := startFleet(t, 2, nil)

	// Rebuild node 0 against a fleet whose configured fingerprint for
	// peer-1 is wrong by construction: give node 0 a doctored fingerprint.
	var sims atomic.Int64
	reg := fleetExperiments(&sims)
	node, err := fabric.New(fabric.Config{
		Self: "odd-one", Fingerprint: "not-the-real-catalog",
		Peers: []fabric.Peer{{ID: fleet[1].id, Addr: "http://" + fleet[1].ts.Listener.Addr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: 2, QueueDepth: 32, Sweep: node})
	node.Attach(mgr)
	ts := httptest.NewServer(New(mgr, reg, node))
	t.Cleanup(func() {
		ts.Close()
		_ = mgr.Drain(context.Background())
	})

	st, _, _ := submitWait(t, ts.URL, sweepBody(runs))
	if st.State != campaign.StateDone {
		t.Fatalf("state %s", st.State)
	}
	if got := sims.Load(); got != runs {
		t.Fatalf("mismatched node simulated %d, want all %d locally", got, runs)
	}
	if fleet[1].sims.Load() != 0 {
		t.Fatal("incompatible peer executed forwarded work")
	}
}

// TestFabricRunRejectsOversizeBody pins that a forwarded shard whose body
// exceeds the decode bound is refused with 413 in the JSON error shape
// and never executes.
func TestFabricRunRejectsOversizeBody(t *testing.T) {
	fleet := startFleet(t, 2, nil)
	resp, b := post(t, fleet[0].ts.URL+"/v1/fabric/run", oversizeBody(`{"experiment":"`))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize forward → %d, want 413 (%.200s)", resp.StatusCode, b)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
		t.Fatalf("oversize forward body %.80q is not the JSON error shape", b)
	}
	if got := fleet[0].sims.Load(); got != 0 {
		t.Fatalf("oversize forward ran %d simulations, want 0", got)
	}
}

// BenchmarkFabricSweepCached measures the fabric's serving overhead: a
// 3-node fleet answering a fully warm 6-run sweep over HTTP, every
// shard forwarded to its owner and served from that peer's memory tier.
func BenchmarkFabricSweepCached(b *testing.B) {
	fleet := startFleet(b, 3, nil)
	body := sweepBody(6)
	submit := func() {
		resp, err := http.Post(fleet[0].ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var st campaign.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || st.State != campaign.StateDone {
			b.Fatalf("submit: %d state %s (%s)", resp.StatusCode, st.State, st.Error)
		}
	}
	submit() // warm every owner's cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}

// TestFabricSCACPAByteIdentical runs the CPA side-channel campaign
// through the whole distributed stack: a 3-node fleet sharding a
// seed sweep of sca-cpa runs produces a result body — binary packed
// trace sets and key-rank JSON included — byte-identical to one
// standalone node, and the raw trace artifact fetched over the
// artifact route matches byte-for-byte too.
func TestFabricSCACPAByteIdentical(t *testing.T) {
	const runs = 4
	var b strings.Builder
	b.WriteString(`{"wait":true,"runs":[`)
	for i := 0; i < runs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"experiment":"sca-cpa","seed":%d,"params":{`, i)
		b.WriteString(`"traces":"8","samples-window":"192","noise-sigma":"0.5"}}`)
	}
	b.WriteString(`]}`)
	body := b.String()

	soloReg := registry.Default()
	soloMgr := campaign.New(campaign.Config{Registry: soloReg, Workers: 2, QueueDepth: 32})
	soloTS := httptest.NewServer(New(soloMgr, soloReg, nil))
	t.Cleanup(func() {
		soloTS.Close()
		_ = soloMgr.Drain(context.Background())
	})
	soloSt, soloBody, soloResp := submitWait(t, soloTS.URL, body)
	if !bytes.Contains(soloBody, []byte("cpa_keyrank.json")) {
		t.Fatalf("campaign output carries no key-rank artifact:\n%.2000s", soloBody)
	}
	if !bytes.Contains(soloBody, []byte("cpa_traces.vbtr")) {
		t.Fatalf("campaign output carries no trace artifact:\n%.2000s", soloBody)
	}

	fleet := startFleetReg(t, 3, nil, registry.Default)
	fleetSt, gotBody, gotResp := submitWait(t, fleet[0].ts.URL, body)
	if !bytes.Equal(gotBody, soloBody) {
		t.Fatalf("sharded sca-cpa body differs from single-node body (%d vs %d bytes)",
			len(gotBody), len(soloBody))
	}
	if se, ge := soloResp.Header.Get("ETag"), gotResp.Header.Get("ETag"); se != ge {
		t.Fatalf("ETag differs: solo %s, fleet %s", se, ge)
	}
	if st := fleet[0].node.Status(); st.Stats.ForwardedOut == 0 {
		t.Fatalf("no forwards recorded: %+v", st.Stats)
	}

	// The raw artifact route returns identical bytes from both worlds.
	fetch := func(base, id string) []byte {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result/artifacts/1/cpa_traces.vbtr")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact GET: %d %s", resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("trace artifact served as %q", ct)
		}
		return raw
	}
	soloArt := fetch(soloTS.URL, soloSt.ID)
	fleetArt := fetch(fleet[0].ts.URL, fleetSt.ID)
	if len(soloArt) == 0 || !bytes.Equal(soloArt, fleetArt) {
		t.Fatalf("trace artifact differs across the fabric (%d vs %d bytes)", len(soloArt), len(fleetArt))
	}
}
