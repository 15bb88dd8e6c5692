package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
)

// testSchema is the small schema the replication tests share.
func testSchema(t testing.TB) *oms.Schema {
	t.Helper()
	s := oms.NewSchema()
	if err := s.AddClass("Cell",
		oms.AttrDef{Name: "name", Kind: oms.KindString, Required: true},
		oms.AttrDef{Name: "rev", Kind: oms.KindInt},
		oms.AttrDef{Name: "data", Kind: oms.KindBlob}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("Version",
		oms.AttrDef{Name: "num", Kind: oms.KindInt, Required: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRel(oms.RelDef{Name: "hasVersion", From: "Cell", To: "Version",
		FromCard: oms.One, ToCard: oms.Many}); err != nil {
		t.Fatal(err)
	}
	return s
}

// fingerprint renders a store deterministically with the allocator
// position masked (failed ops burn OIDs without leaving records).
func fingerprint(t testing.TB, st *oms.Store) string {
	t.Helper()
	data, err := st.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "next_oid")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func waitConverged(t testing.TB, r *Replica, st *oms.Store, timeout time.Duration) {
	t.Helper()
	if err := r.WaitFor(st.FeedLSN(), timeout); err != nil {
		t.Fatalf("replica did not converge: %v (applied %d, want %d)", err, r.AppliedLSN(), st.FeedLSN())
	}
}

// TestFrameCodec covers the wire framing: round-trip, truncated header,
// truncated payload, oversized length prefix.
func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	want := Frame{Type: FrameChanges, LSN: 42, Payload: []byte("hello")}
	if err := writeFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.LSN != want.LSN || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("round-trip mismatch: %+v != %+v", got, want)
	}
	// Every truncation of a valid frame must error, never hang or panic.
	for cut := 0; cut < len(wire); cut++ {
		if _, err := readFrame(bytes.NewReader(wire[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// A hostile length prefix must be rejected before allocation.
	bad := append([]byte(nil), wire...)
	bad[9], bad[10], bad[11], bad[12] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	if _, err := readFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: got %v, want EOF", err)
	}
}

// startPipePublisher wires a publisher to a fresh pipe transport.
func startPipePublisher(t testing.TB, st *oms.Store, opts ...PublisherOption) (*Publisher, Dialer) {
	t.Helper()
	ln, d := Pipe()
	p := NewPublisher(st, opts...)
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(p.Close)
	return p, d
}

// TestReplicaBootstrapAndTail: a replica joining an already-populated
// primary converges, then tracks live traffic; WaitFor gives
// read-your-writes.
func TestReplicaBootstrapAndTail(t *testing.T) {
	schema := testSchema(t)
	st := oms.NewStore(schema)
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.Create("Version", map[string]oms.Value{"num": oms.I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	_, d := startPipePublisher(t, st)
	rep := NewReplica(testSchema(t), d)
	rep.Start()
	defer rep.Close()
	waitConverged(t, rep, st, 5*time.Second)
	if got, want := fingerprint(t, rep.Store()), fingerprint(t, st); got != want {
		t.Fatalf("bootstrap fingerprint mismatch:\n got %s\nwant %s", got, want)
	}

	// Live tail + read-your-writes barrier.
	if err := st.Set(cell, "rev", oms.I(7)); err != nil {
		t.Fatal(err)
	}
	lsn := st.FeedLSN()
	if err := rep.WaitFor(lsn, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := rep.Store().GetInt(cell, "rev"); got != 7 {
		t.Fatalf("read-your-writes violated: rev = %d after WaitFor(%d)", got, lsn)
	}
	if rep.AppliedLSN() != rep.Store().FeedLSN() {
		t.Fatalf("applied %d != follower feed %d", rep.AppliedLSN(), rep.Store().FeedLSN())
	}
	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("lag %d after quiesce", lag)
	}
}

// TestReplicaResume: a dropped transport resumes from the applied LSN
// without a second bootstrap.
func TestReplicaResume(t *testing.T) {
	schema := testSchema(t)
	st := oms.NewStore(schema)
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	p, d := startPipePublisher(t, st)
	rep := NewReplica(testSchema(t), d, WithReconnectBackoff(time.Millisecond))
	rep.Start()
	defer rep.Close()
	waitConverged(t, rep, st, 5*time.Second)

	p.DisconnectAll()
	for i := 0; i < 50; i++ {
		if err := st.Set(cell, "rev", oms.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, rep, st, 5*time.Second)
	if got := rep.Store().GetInt(cell, "rev"); got != 49 {
		t.Fatalf("rev = %d after resume", got)
	}
	// The whole history stayed within the feed ring, so no session ever
	// needed a snapshot.
	if boots := rep.Stats().Bootstraps; boots != 0 {
		t.Fatalf("resume took %d bootstraps, want 0", boots)
	}
	if rec := rep.Stats().Reconnects; rec == 0 {
		t.Fatal("expected at least one reconnect")
	}
}

// churn drives n tiny committed ops through the store.
func churn(t testing.TB, st *oms.Store, oid oms.OID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.Set(oid, "rev", oms.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// gateDialer blocks Dial while the gate is shut — the test lever for
// keeping a replica disconnected long enough to fall out of the ring.
type gateDialer struct {
	d    Dialer
	mu   sync.Mutex
	open chan struct{}
}

func newGateDialer(d Dialer) *gateDialer {
	g := &gateDialer{d: d, open: make(chan struct{})}
	close(g.open)
	return g
}

func (g *gateDialer) gate() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.open
}

func (g *gateDialer) Shut() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateDialer) Open() {
	g.mu.Lock()
	select {
	case <-g.open:
	default:
		close(g.open)
	}
	g.mu.Unlock()
}

func (g *gateDialer) Dial() (Conn, error) {
	select {
	case <-g.gate():
		return g.d.Dial()
	case <-time.After(time.Millisecond):
		return nil, fmt.Errorf("repl_test: gate shut")
	}
}

// TestReplicaEvictionRebootstrap: a replica that falls behind the feed
// ring's retention window re-bootstraps from a snapshot and still
// converges — the Watch Lagged() fallback across the wire.
func TestReplicaEvictionRebootstrap(t *testing.T) {
	schema := testSchema(t)
	st := oms.NewStore(schema)
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	p, d := startPipePublisher(t, st)
	gated := newGateDialer(d)
	rep := NewReplica(testSchema(t), gated, WithReconnectBackoff(time.Millisecond))
	rep.Start()
	defer rep.Close()
	waitConverged(t, rep, st, 5*time.Second)

	// Cut the transport and hold it down while the primary runs far past
	// the ring's retention (32k records), so the replica's resume
	// position is gone by the time it can reconnect.
	gated.Shut()
	p.DisconnectAll()
	churn(t, st, cell, 40_000)
	gated.Open()
	waitConverged(t, rep, st, 30*time.Second)
	if got, want := fingerprint(t, rep.Store()), fingerprint(t, st); got != want {
		t.Fatal("fingerprint mismatch after eviction re-bootstrap")
	}
	if boots := rep.Stats().Bootstraps; boots == 0 {
		t.Fatal("expected a snapshot re-bootstrap after eviction")
	}
}

// seedChain mimics the persistence layer's periodic differential saves
// into a fresh seed backend: a full base commit, then delta commits
// captured while the suffix is still retained, while the feed ring
// churns far past its window. The manifest is returned uncommitted so a
// caller can damage it before PutManifest.
func seedChain(t *testing.T, st *oms.Store, cell oms.OID) (backend.Backend, backend.Manifest) {
	t.Helper()
	seed, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, err := st.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put("oms@1", base); err != nil {
		t.Fatal(err)
	}
	m := backend.Manifest{
		Epoch: 1, OMS: "oms@1", Framework: "framework@1",
		OMSSum:       backend.SHA256Hex(base),
		FrameworkSum: backend.SHA256Hex(nil),
		BaseEpoch:    1, BaseLSN: st.FeedLSN(), FeedLSN: st.FeedLSN(),
	}
	if err := seed.Put("framework@1", nil); err != nil {
		t.Fatal(err)
	}
	prevLSN := st.FeedLSN()
	for round := 0; round < 40; round++ {
		churn(t, st, cell, 1000)
		recs, ok := st.Changes(prevLSN)
		if !ok {
			t.Fatalf("round %d: suffix evicted before capture", round)
		}
		payload, err := oms.EncodeChanges(recs)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("delta@%d", round+2)
		if err := seed.Put(name, payload); err != nil {
			t.Fatal(err)
		}
		to := recs[len(recs)-1].LSN
		m.Deltas = append(m.Deltas, backend.DeltaRef{
			Name: name, Sum: backend.SHA256Hex(payload), FromLSN: prevLSN, ToLSN: to,
		})
		m.Epoch++
		m.FeedLSN = to
		prevLSN = to
	}
	if _, err := st.Watch(0, 1); err == nil {
		t.Fatal("test premise broken: feed still retains LSN 0")
	}
	return seed, m
}

// TestReplicaChainBootstrap: a publisher with a seed backend bootstraps
// an evicted-past replica by shipping the committed base + delta chain
// instead of cutting a fresh snapshot.
func TestReplicaChainBootstrap(t *testing.T) {
	st := oms.NewStore(testSchema(t))
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	seed, m := seedChain(t, st, cell)
	if err := backend.PutManifest(seed, m); err != nil {
		t.Fatal(err)
	}

	p, d := startPipePublisher(t, st, WithSeedBackend(seed))
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	rep := NewReplica(testSchema(t), d)
	rep.Start()
	defer rep.Close()
	waitConverged(t, rep, st, 30*time.Second)
	if got, want := fingerprint(t, rep.Store()), fingerprint(t, st); got != want {
		t.Fatal("fingerprint mismatch after chain bootstrap")
	}
	checkBootstraps(t, reg, 0, 1)
}

// TestReplicaChainBootstrapGapFallsBack: a seed manifest whose delta
// chain skips a range of LSNs (every payload present and checksummed)
// is not shipped; the publisher bootstraps the replica from a live
// snapshot instead, and the replica converges.
func TestReplicaChainBootstrapGapFallsBack(t *testing.T) {
	st := oms.NewStore(testSchema(t))
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	seed, m := seedChain(t, st, cell)
	m.Deltas = append(m.Deltas[:10:10], m.Deltas[11:]...) // drop one delta: a gap
	if err := backend.PutManifest(seed, m); err != nil {
		t.Fatal(err)
	}

	p, d := startPipePublisher(t, st, WithSeedBackend(seed))
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	rep := NewReplica(testSchema(t), d)
	rep.Start()
	defer rep.Close()
	waitConverged(t, rep, st, 30*time.Second)
	if got, want := fingerprint(t, rep.Store()), fingerprint(t, st); got != want {
		t.Fatal("fingerprint mismatch after snapshot fallback")
	}
	checkBootstraps(t, reg, 1, 0)
}

// checkBootstraps asserts the publisher's bootstrap counters, read from
// the registry it was registered in.
func checkBootstraps(t *testing.T, reg *obs.Registry, snapshot, chain int64) {
	t.Helper()
	m := reg.Snapshot()
	gotSnap, gotChain := m["repl_pub_snapshot_bootstraps_total"], m["repl_pub_chain_bootstraps_total"]
	if gotSnap != snapshot || gotChain != chain {
		t.Fatalf("bootstraps: snapshot %v chain %v, want %d and %d", gotSnap, gotChain, snapshot, chain)
	}
}

// TestPromoteContinuesLSNSequence: a promoted replica is writable, its
// feed continues the primary's LSN sequence, and a second replica can
// follow the promoted store — failover chaining.
func TestPromoteContinuesLSNSequence(t *testing.T) {
	schema := testSchema(t)
	st := oms.NewStore(schema)
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	churn(t, st, cell, 25)
	_, d := startPipePublisher(t, st)
	rep := NewReplica(testSchema(t), d)
	rep.Start()
	waitConverged(t, rep, st, 5*time.Second)
	was := st.FeedLSN()

	promoted := rep.Promote()
	if got := promoted.FeedLSN(); got != was {
		t.Fatalf("promoted feed at %d, want %d", got, was)
	}
	if err := promoted.Set(cell, "rev", oms.I(999)); err != nil {
		t.Fatalf("promoted store not writable: %v", err)
	}
	if got := promoted.FeedLSN(); got != was+1 {
		t.Fatalf("post-promotion commit got LSN %d, want %d", got, was+1)
	}

	// Chain: a fresh replica follows the promoted store.
	_, d2 := startPipePublisher(t, promoted)
	rep2 := NewReplica(testSchema(t), d2)
	rep2.Start()
	defer rep2.Close()
	waitConverged(t, rep2, promoted, 5*time.Second)
	if got, want := fingerprint(t, rep2.Store()), fingerprint(t, promoted); got != want {
		t.Fatal("chained replica diverged from promoted primary")
	}
}

// faultConn wraps a Conn, corrupting or gapping selected publisher
// frames to probe the replica's robustness paths.
type faultConn struct {
	Conn
	mutate func(Frame) (Frame, bool) // false: drop the frame
}

func (f *faultConn) Recv() (Frame, error) {
	for {
		fr, err := f.Conn.Recv()
		if err != nil {
			return fr, err
		}
		if out, ok := f.mutate(fr); ok {
			return out, nil
		}
	}
}

// faultDialer injects a per-connection mutator around a real dialer.
type faultDialer struct {
	d      Dialer
	mutate func(Frame) (Frame, bool)
}

func (fd *faultDialer) Dial() (Conn, error) {
	c, err := fd.d.Dial()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, mutate: fd.mutate}, nil
}

// TestReplicaStreamRobustness: corrupt payloads and gapped streams never
// apply partially — the replica resynchronizes and still converges, and
// a detected gap is counted.
func TestReplicaStreamRobustness(t *testing.T) {
	schema := testSchema(t)
	st := oms.NewStore(schema)
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	_, d := startPipePublisher(t, st)

	var corrupted, gapped atomic.Int64
	fd := &faultDialer{d: d, mutate: func(f Frame) (Frame, bool) {
		// Only target frames carrying records; the empty position frame
		// at session start is not interesting to corrupt or drop.
		if f.Type != FrameChanges || len(f.Payload) <= len("[]") {
			return f, true
		}
		// First changes frame: corrupt bytes. Second: drop it entirely,
		// so the next one arrives as a gap.
		if corrupted.CompareAndSwap(0, 1) {
			return Frame{Type: FrameChanges, LSN: f.LSN, Payload: []byte("{corrupt")}, true
		}
		if gapped.CompareAndSwap(0, 1) {
			return Frame{}, false
		}
		return f, true
	}}
	rep := NewReplica(testSchema(t), fd, WithReconnectBackoff(time.Millisecond))
	rep.Start()
	defer rep.Close()

	// Keep traffic flowing while the faults hit: the corrupted frame ends
	// one session, the dropped frame surfaces as a gap on the next.
	for i := 0; i < 30; i++ {
		if err := st.Set(cell, "rev", oms.I(int64(i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitConverged(t, rep, st, 10*time.Second)
	if got, want := fingerprint(t, rep.Store()), fingerprint(t, st); got != want {
		t.Fatal("fingerprint mismatch after stream faults")
	}
	if corrupted.Load() == 0 || gapped.Load() == 0 {
		t.Fatalf("faults not exercised: corrupted=%d gapped=%d", corrupted.Load(), gapped.Load())
	}
	if rep.Stats().Gaps == 0 {
		t.Fatal("gap went undetected")
	}
}

// --- the convergence stress test (the stress-repl CI gate) ------------

// runConvergenceStress is the acceptance scenario: a primary mutating
// under concurrent load while one replica follows from the start, a
// second bootstraps mid-stream from a snapshot (the primary's feed has
// already evicted its prefix), and the transport is killed twice
// mid-run. After the primary quiesces, every replica must reach the
// final LSN and fingerprint-match the primary, and WaitFor barriers must
// observe the writes they cover.
func runConvergenceStress(t *testing.T, mkTransport func(t *testing.T, p *Publisher) Dialer) {
	schema := testSchema(t)
	st := oms.NewStore(schema)
	cell, err := st.Create("Cell", map[string]oms.Value{"name": oms.S("seed")})
	if err != nil {
		t.Fatal(err)
	}
	// Push the feed past its retention window up front, so every session
	// resuming from 0 exercises the snapshot bootstrap deterministically.
	churn(t, st, cell, 34_000)

	p := NewPublisher(st)
	defer p.Close()
	d := mkTransport(t, p)

	newRep := func() *Replica {
		r := NewReplica(testSchema(t), d, WithReconnectBackoff(time.Millisecond))
		r.Start()
		return r
	}
	repA := newRep()
	defer repA.Close()

	const (
		designers   = 4
		opsPer      = 3000
		killAtOp    = 4000 // total ops across designers
		joinAtOp    = 2000
		secondKill  = 8000
		totalBudget = designers * opsPer
	)
	var (
		opCount atomic.Int64
		repB    *Replica
		ctl     sync.Once
		kill1   sync.Once
		kill2   sync.Once
	)
	var wg sync.WaitGroup
	for g := 0; g < designers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			var mine []oms.OID
			for i := 0; i < opsPer; i++ {
				n := opCount.Add(1)
				if n == joinAtOp {
					ctl.Do(func() { repB = newRep() })
				}
				if n == killAtOp {
					kill1.Do(p.DisconnectAll)
				}
				if n == secondKill {
					kill2.Do(p.DisconnectAll)
				}
				switch r := rng.Intn(100); {
				case r < 25:
					oid, err := st.Create("Cell", map[string]oms.Value{
						"name": oms.S(fmt.Sprintf("c%d-%d", g, i)),
					})
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, oid)
				case r < 60:
					if len(mine) > 0 {
						oid := mine[rng.Intn(len(mine))]
						_ = st.Set(oid, "rev", oms.I(int64(i)))
					}
				case r < 70:
					if len(mine) > 0 {
						oid := mine[rng.Intn(len(mine))]
						_ = st.Set(oid, "data", oms.Bytes([]byte(fmt.Sprintf("blob-%d-%d", g, i))))
					}
				case r < 85:
					// A whole-group batch: version create + link.
					if len(mine) > 0 {
						b := oms.NewBatch()
						v := b.CreateOwned("Version", map[string]oms.Value{"num": oms.I(int64(i))})
						b.Link("hasVersion", mine[rng.Intn(len(mine))], v)
						if _, err := st.Apply(b); err != nil {
							t.Error(err)
							return
						}
					}
				default:
					if len(mine) > 1 {
						idx := rng.Intn(len(mine))
						_ = st.Delete(mine[idx])
						mine = append(mine[:idx], mine[idx+1:]...)
					}
				}
			}
		}(g)
	}
	// Read-your-writes probes against replica A while the storm runs.
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for i := 0; i < 20; i++ {
			if err := st.Set(cell, "rev", oms.I(int64(1000+i))); err != nil {
				t.Error(err)
				return
			}
			lsn := st.FeedLSN()
			if err := repA.WaitFor(lsn, 60*time.Second); err != nil {
				t.Errorf("probe %d: %v", i, err)
				return
			}
			// The barrier covers the write: the replica's value must be
			// at least as new as ours (later writes may already be in).
			if got := repA.Store().GetInt(cell, "rev"); got < int64(1000+i) {
				t.Errorf("probe %d: read %d after WaitFor(%d)", i, got, lsn)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-probeDone
	if t.Failed() {
		return
	}
	if int(opCount.Load()) != totalBudget {
		t.Fatalf("ran %d ops, want %d", opCount.Load(), totalBudget)
	}

	final := st.FeedLSN()
	want := fingerprint(t, st)
	for i, rep := range []*Replica{repA, repB} {
		if rep == nil {
			t.Fatal("mid-stream replica never started")
		}
		if err := rep.WaitFor(final, 60*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if got := fingerprint(t, rep.Store()); got != want {
			t.Fatalf("replica %d fingerprint diverged from primary", i)
		}
	}
	if repA.Stats().Bootstraps == 0 {
		t.Fatal("replica A never snapshot-bootstrapped (premise broken)")
	}
	defer repB.Close()
}

func TestReplicationConvergenceUnderLoad(t *testing.T) {
	runConvergenceStress(t, func(t *testing.T, p *Publisher) Dialer {
		ln, d := Pipe()
		go func() { _ = p.Serve(ln) }()
		return d
	})
}

func TestReplicationConvergenceUnderLoadTCP(t *testing.T) {
	runConvergenceStress(t, func(t *testing.T, p *Publisher) Dialer {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = p.Serve(ln) }()
		return &TCPDialer{Addr: ln.Addr()}
	})
}
