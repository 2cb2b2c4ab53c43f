// Package chaos is the seeded fault soak harness: it drives a mixed
// smallbank + hash-table workload against a one-back-end cluster while a
// deterministic fault plane injects verb faults, partitions, back-end
// crashes (with mirror promotion) and restarts, and checks durability and
// consistency invariants after every recovery:
//
//   - money conservation: the smallbank workload is restricted to
//     conserving transactions, so the sum of all balances must equal the
//     initial endowment at every check point;
//   - no acknowledged update lost: every Put the harness was told
//     committed must read back, byte for byte, through a fresh reader
//     front-end (seqlock path) after each failover;
//   - archive completeness: after the soak, the full operation stream is
//     replayed into a brand-new back-end (§7.2 Case 4 without a replica)
//     and both structures must reconstruct exactly.
//
// Everything is deterministic per seed: two runs with the same Config
// produce byte-identical reports, including the fault event log (the
// fault plane's reproducibility contract).
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"asymnvm/internal/backend"
	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/fault"
	"asymnvm/internal/logrec"
	"asymnvm/internal/serve"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
	"asymnvm/internal/txapp"
)

const (
	bankName = "chaos-bank"
	kvName   = "chaos-kv"
	// Each account is seeded with savings 10000 + checking 5000.
	moneyPerAccount = 15000
)

// Config parameterizes one soak run.
type Config struct {
	Seed     int64
	Ops      int    // workload operations
	Accounts uint64 // smallbank accounts
	Keys     uint64 // hash-table key space
	Mirrors  int    // replica mirrors (promotion candidates)

	Promotes   int // scheduled permanent crashes (mirror promotion)
	Restarts   int // scheduled transient crash-restarts
	Partitions int // scheduled partition windows

	DropProb     float64 // per-verb drop probability
	TruncateProb float64 // per-verb mid-transfer truncation probability
	DelayProb    float64 // per-verb delay probability
	MirrorLag    int     // replication lag in kicks (0 = synchronous)
	Pipeline     int     // writer send-queue depth (>1 enables posted verbs)
	AutoTune     bool    // enable the adaptive batch/depth controller on the writer
	Compact      bool    // run every back-end incarnation with log compaction on

	Rebuild bool // end with an archive-replay rebuild check
	Verbose bool // include every injected fault event in the report

	// Serve routes every workload operation through the networked
	// front-end service (internal/serve): a TCP server owns the writer
	// front-end and the soak drives it with a synchronous client, so the
	// admission/queue/executor path is exercised under fault injection.
	// The client is serial, all latency is charged to the virtual clock,
	// and verification pauses the server (Close gives the soak goroutine
	// a happens-before edge with the executor), so reports stay
	// byte-identical per seed.
	Serve bool

	// TxCross partitions the smallbank across two back-ends and routes
	// every transfer that spans partitions through a cross-shard 2PC
	// transaction (prepare on each participant, coordinator commit
	// record, presumed abort). The conservation invariant then checks
	// cross-partition atomicity: a transfer half-applied across back-ends
	// would mint or burn money. Verb faults run on both links. Mutually
	// exclusive with Serve (the TCP service owns a single-shard bank),
	// and the archive rebuild check is skipped — one node's archived
	// stream cannot reconstruct transactions that span two nodes.
	TxCross bool

	// MultiWriter replaces the plain hash table with a striped one
	// (ds.Striped) written by TWO front-ends that the soak goroutine
	// alternates deterministically, so the per-stripe shared-lock
	// handoff (release → acquire → tail resync) runs under verb faults,
	// partitions and restarts. After every recovery the committed keys
	// are additionally read back through a mirror replica front-end,
	// with the staleness assertion that a synced mirror shows a zero
	// epoch gap on every stripe. Mutually exclusive with Serve (the TCP
	// service owns one writer) and TxCross (the partitioned bank owns
	// the second back-end), and requires Promotes = 0: promotion hands
	// the primary role to a mirror mid-bracket, which the shared stripe
	// lock protocol does not arbitrate (the lock word on the promoted
	// copy is an attach-time snapshot, not live lock state).
	MultiWriter bool

	// Rebalance replaces the plain hash table with an elastic partitioned
	// one (ds.CreateElastic) spread over TWO back-ends and keeps
	// migrations running for the whole soak: every few dozen operations
	// the soak either begins a handoff (snapshot stream + double-log
	// window opens) or cuts one over (epoch-fenced map flip + finish), so
	// workload writes land inside live double-log windows and reads cross
	// cutovers, all under verb faults, partitions and restarts. The
	// durability check then covers migrated state: every committed key
	// must read back through a fresh reader that routes by the persisted
	// versioned map alone. Mutually exclusive with Serve (the TCP service
	// owns a plain hash table), TxCross (cross-shard 2PC history refuses
	// to migrate, and transactions pause during a handoff), MultiWriter
	// (partition handoff is SWMR: the migrating writer is the only
	// writer), and Compact (log truncation invalidates the full-history
	// stream migration replays from). Requires Promotes = 0: promotion
	// replaces the source node mid-soak, while the in-flight migration
	// state is writer-side.
	Rebalance bool

	// Tracer, when non-nil, records per-operation spans for the soak's
	// writer front-end and primary back-end (see cluster.Config.Tracer).
	Tracer *trace.Tracer
	// OnFrontend, when non-nil, observes the writer front-end right after
	// it connects — live /metrics endpoints hook in here.
	OnFrontend func(fe *core.Frontend)
}

// DefaultConfig returns the acceptance-run configuration.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Ops:          5000,
		Accounts:     20,
		Keys:         256,
		Mirrors:      2,
		Promotes:     2,
		Restarts:     2,
		Partitions:   4,
		DropProb:     0.01,
		TruncateProb: 0.005,
		DelayProb:    0.01,
		MirrorLag:    2,
		Rebuild:      true,
	}
}

// Report is the outcome of a soak. Lines is deterministic per seed —
// comparing two reports line by line is the reproducibility check.
type Report struct {
	Lines      []string
	Checks     int    // invariant checks performed
	Violations int    // invariant checks failed
	Digest     uint64 // fault event log digest
	Stats      stats.Snapshot
	// MappedBytes is the host memory every simulated device in the
	// cluster holds at soak end. It depends on scheduling (replayer and
	// mirror progress), so it stays out of Lines.
	MappedBytes int
}

// String renders the report.
func (r *Report) String() string { return strings.Join(r.Lines, "\n") + "\n" }

// soak carries the run state.
type soak struct {
	cfg    Config
	clu    *cluster.Cluster
	plane  *fault.Plane
	inj    *fault.Injector
	fe     *core.Frontend
	bank   *txapp.SmallBank
	pbank  *txapp.PartitionedSmallBank // TxCross mode: replaces bank
	tc     *core.TxCoordinator
	kv     *ds.HashTable
	oracle map[uint64][]byte
	rep    *Report

	// MultiWriter mode: mw replaces kv with two writer attachments to
	// one striped table; the soak alternates them per put (mwTurn).
	// inj2 is the second writer's injector (cut on restarts, like inj).
	mw     [2]*ds.Striped
	mwFes  [2]*core.Frontend
	mwTurn int
	inj2   *fault.Injector

	// Rebalance mode: reb replaces kv with an elastic partitioned table
	// over rebConns (two back-ends); rebMig is the handoff currently in
	// its double-log window, rebMoves counts completed cutovers and
	// rebRng draws the partition choices (its own stream, so the workload
	// rng sequence is identical with rebalancing on or off).
	reb      *ds.Partitioned
	rebConns []*core.Conn
	rebMig   *ds.Migration
	rebMoves int
	rebRng   *rand.Rand

	// Serve-mode plumbing: while srv is non-nil its executor goroutine
	// owns fe/bank/kv and every operation goes through cli.
	srv *serve.Server
	cli *serve.Client
}

// rebEvery is the rebalance-mode cadence in workload operations: each
// notch either opens a handoff's double-log window or cuts it over, so
// every migration spans rebEvery live operations.
const rebEvery = 48

// rebStep advances the continuous-migration state machine one notch.
// With no handoff in flight it begins one — partition drawn from the
// dedicated rng, destination the back-end that does NOT currently own
// it — and streams the snapshot, which opens the double-log window.
// Otherwise it cuts the in-flight handoff over and finishes it. The
// workload operations between two notches commit inside the window, so
// every soak migration ships a live log suffix, not just a snapshot.
func (s *soak) rebStep() error {
	if s.rebMig == nil {
		pi := s.rebRng.Intn(len(s.reb.Parts()))
		dst := 1 - s.reb.Owner(pi) // ping-pong between the two back-ends
		m, err := s.reb.BeginMigration(pi, s.rebConns[dst])
		if err != nil {
			return fmt.Errorf("chaos: begin migration part %d: %w", pi, err)
		}
		if _, err := m.StreamSnapshot(); err != nil {
			return fmt.Errorf("chaos: stream part %d: %w", pi, err)
		}
		s.rebMig = m
		return nil
	}
	if err := s.rebMig.Cutover(); err != nil {
		return fmt.Errorf("chaos: cutover: %w", err)
	}
	if err := s.rebMig.Finish(); err != nil {
		return fmt.Errorf("chaos: finish migration: %w", err)
	}
	s.rebMig = nil
	s.rebMoves++
	return nil
}

// serveStart hands the structures to a fresh TCP server and connects
// the soak's client.
func (s *soak) serveStart() error {
	srv := serve.New(serve.Backends{FE: s.fe, KV: s.kv, Bank: s.bank}, serve.DefaultOptions())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	cli, err := serve.Dial(srv.Addr().String(), 1)
	if err != nil {
		srv.Close()
		return err
	}
	s.srv, s.cli = srv, cli
	return nil
}

// serveStop settles the server and takes the structures back. Close
// joins the executor goroutine, so direct access afterwards is ordered
// after everything it did.
func (s *soak) serveStop() error {
	if s.srv == nil {
		return nil
	}
	resp, err := s.cli.Drain()
	if err == nil && resp.Status != serve.StatusOK {
		err = fmt.Errorf("chaos: serve drain status %d", resp.Status)
	}
	s.cli.Close()
	s.srv.Close()
	s.srv, s.cli = nil, nil
	return err
}

// serveErr converts a non-OK response into an operation error.
func serveErr(op string, resp serve.Response, err error) error {
	if err != nil {
		return fmt.Errorf("chaos: serve %s: %w", op, err)
	}
	if resp.Status != serve.StatusOK {
		return fmt.Errorf("chaos: serve %s: status %d %s", op, resp.Status, resp.Val)
	}
	return nil
}

func dsOpts() ds.Options {
	// Logs sized so the soak never blocks on replayer progress (that wait
	// polls the remote tail and would make the verb count scheduling-
	// dependent).
	return ds.Options{
		Buckets: 1 << 10,
		Create:  core.CreateOptions{MemLogSize: 32 << 20, OpLogSize: 8 << 20},
	}
}

// Run executes one soak and returns its report. A non-nil error means the
// harness itself failed (setup, schedule); invariant failures are counted
// in Report.Violations instead.
func Run(cfg Config) (*Report, error) {
	if cfg.Promotes > cfg.Mirrors {
		return nil, fmt.Errorf("chaos: %d promotions need at least that many mirrors, have %d", cfg.Promotes, cfg.Mirrors)
	}
	if cfg.TxCross && cfg.Serve {
		return nil, fmt.Errorf("chaos: -txcross and -serve are mutually exclusive (the TCP service owns a single-shard bank)")
	}
	if cfg.MultiWriter && (cfg.Serve || cfg.TxCross) {
		return nil, fmt.Errorf("chaos: -multiwriter is mutually exclusive with -serve and -txcross")
	}
	if cfg.MultiWriter && cfg.Promotes > 0 {
		return nil, fmt.Errorf("chaos: -multiwriter requires -promotes 0 (shared stripe locks do not arbitrate promotion mid-bracket)")
	}
	if cfg.Rebalance && (cfg.Serve || cfg.TxCross || cfg.MultiWriter || cfg.Compact) {
		return nil, fmt.Errorf("chaos: -rebalance is mutually exclusive with -serve, -txcross, -multiwriter and -compact")
	}
	if cfg.Rebalance && cfg.Promotes > 0 {
		return nil, fmt.Errorf("chaos: -rebalance requires -promotes 0 (in-flight handoff state is writer-side)")
	}
	ccfg := cluster.DefaultConfig()
	ccfg.MirrorsPerBack = cfg.Mirrors
	ccfg.ArchivePerBack = true
	ccfg.Tracer = cfg.Tracer
	if cfg.TxCross || cfg.Rebalance {
		ccfg.Backends = 2
	}
	if cfg.Compact {
		// A small interval so checkpoints and log truncation actually fire
		// mid-soak, interleaved with crashes and promotions. Determinism is
		// unaffected: the post-recovery state is a function of the durable
		// log bytes, wherever the checkpoint cursor happens to sit.
		ccfg.Compact = &backend.CompactConfig{Interval: 32 << 10}
	}
	clu, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	defer clu.Stop()

	plane := fault.NewPlane(cfg.Seed)
	plane.SetMirrorLag(cfg.MirrorLag)
	clu.AttachFaultPlane(plane)

	// The writer mode: plain R by default; with Pipeline > 1 a small batch
	// is added so the posted-verb paths (async op-log flush, one-doorbell
	// commit groups) actually engage under fault injection.
	wMode := core.ModeR()
	if cfg.Pipeline > 1 {
		wMode = core.Mode{OpLog: true, Batch: 4, Pipeline: cfg.Pipeline}
	}
	if cfg.AutoTune {
		// The controller needs real ceilings to move inside; raise the
		// static limits so it has a trajectory, then let it drive. Its
		// inputs all come off the virtual clock, so the soak stays
		// byte-identical per seed with the controller on.
		if wMode.Batch < 8 {
			wMode.Batch = 8
		}
		if wMode.Pipeline < 8 {
			wMode.Pipeline = 8
		}
		wMode = wMode.WithAutoTune()
	}
	fe, conns, err := clu.NewFrontend(1, wMode)
	if err != nil {
		return nil, err
	}
	if cfg.OnFrontend != nil {
		cfg.OnFrontend(fe)
	}
	s := &soak{
		cfg:    cfg,
		clu:    clu,
		plane:  plane,
		inj:    plane.Injector(cluster.InjectorName(1, 0)),
		fe:     fe,
		oracle: make(map[uint64][]byte),
		rep:    &Report{},
	}
	tune := ""
	if cfg.AutoTune {
		tune = " autotune=on"
	}
	if cfg.Compact {
		tune += " compact=on"
	}
	if cfg.Serve {
		tune += " serve=on"
	}
	if cfg.TxCross {
		tune += " txcross=on"
	}
	if cfg.MultiWriter {
		tune += " multiwriter=on"
	}
	if cfg.Rebalance {
		tune += " rebalance=on"
	}
	s.line("chaos: seed=%d ops=%d accounts=%d keys=%d mirrors=%d lag=%d pipe=%d%s", cfg.Seed, cfg.Ops, cfg.Accounts, cfg.Keys, cfg.Mirrors, cfg.MirrorLag, cfg.Pipeline, tune)

	// Build both structures before faults start: creation is plumbing, the
	// soak exercises steady-state operation under failure.
	if cfg.TxCross {
		// Four partitions striped across the two back-ends, a coordinator
		// structure on back-end 0, and the 2PC path armed: every transfer
		// whose rows hash to different partitions commits cross-shard.
		if s.pbank, err = txapp.NewPartitionedSmallBank(conns, bankName, cfg.Accounts, 4, dsOpts()); err != nil {
			return nil, err
		}
		if s.tc, err = core.NewTxCoordinator(conns[0], bankName+".txc"); err != nil {
			return nil, err
		}
		s.pbank.EnableCrossShardTx(s.tc)
	} else if s.bank, err = txapp.NewSmallBank(conns[0], bankName, cfg.Accounts, dsOpts()); err != nil {
		return nil, err
	}
	if cfg.Rebalance {
		// Every handoff materialises a fresh destination generation with
		// its own logs, and reclaim is lazy — with the soak-wide 32 MiB
		// logs a long soak exhausts the 256 MiB devices on generation
		// areas alone. The elastic table's whole history is a slice of the
		// soak's kv ops, so 2 MiB mem + 1 MiB op logs hold it un-wrapped
		// (HistoryOps needs the full ring) with a wide margin.
		rebOpts := dsOpts()
		rebOpts.Create = core.CreateOptions{MemLogSize: 2 << 20, OpLogSize: 1 << 20}
		if s.reb, err = ds.CreateElastic(conns, ds.KindHashTable, kvName, 4, rebOpts); err != nil {
			return nil, err
		}
		s.rebConns = conns
		s.rebRng = rand.New(rand.NewSource(cfg.Seed ^ 0x7265626C)) // migration stream
	} else if cfg.MultiWriter {
		if s.mw[0], err = ds.CreateStriped(conns[0], ds.KindHashTable, kvName, 4, dsOpts()); err != nil {
			return nil, err
		}
		fe2, conns2, err := clu.NewFrontend(2, wMode)
		if err != nil {
			return nil, err
		}
		if s.mw[1], err = ds.OpenStriped(conns2[0], kvName, true, dsOpts()); err != nil {
			return nil, err
		}
		s.mwFes[0], s.mwFes[1] = fe, fe2
		s.inj2 = plane.Injector(cluster.InjectorName(2, 0))
	} else if s.kv, err = ds.CreateHashTable(conns[0], kvName, dsOpts()); err != nil {
		return nil, err
	}
	if err := s.drain(); err != nil {
		return nil, err
	}

	sched := plane.BuildSchedule(cfg.Ops, cfg.Promotes, cfg.Restarts, cfg.Partitions)
	for _, a := range sched {
		s.line("sched: op=%d %s arg=%d", a.AtOp, a.Kind, a.Arg)
	}
	s.inj.SetVerbFaults(fault.VerbFaults{
		DropProb:     cfg.DropProb,
		TruncateProb: cfg.TruncateProb,
		DelayProb:    cfg.DelayProb,
	})
	if cfg.MultiWriter {
		// The second writer's link takes hits too: stripe-lock handoff
		// verbs (release drain, hint persists, acquire CAS) must survive
		// faults on either side.
		s.inj2.SetVerbFaults(fault.VerbFaults{
			DropProb:     cfg.DropProb,
			TruncateProb: cfg.TruncateProb,
			DelayProb:    cfg.DelayProb,
		})
	}
	if cfg.TxCross {
		// Participant-side faults too: prepares and decisions to the
		// second back-end take hits on their own link.
		plane.Injector(cluster.InjectorName(1, 1)).SetVerbFaults(fault.VerbFaults{
			DropProb:     cfg.DropProb,
			TruncateProb: cfg.TruncateProb,
			DelayProb:    cfg.DelayProb,
		})
	}

	if cfg.Serve {
		if err := s.serveStart(); err != nil {
			return nil, err
		}
	}
	if err := s.soakLoop(sched); err != nil {
		s.serveStop()
		return nil, err
	}
	if s.rebMig != nil {
		// The workload ended mid-window; settle the last handoff so the
		// final verification sees a fully balanced begin/finish ledger.
		if err := s.rebStep(); err != nil {
			return nil, err
		}
	}
	s.verify("final")
	if err := s.serveStop(); err != nil {
		return nil, err
	}
	if cfg.Serve {
		snap := fe.Stats().Snapshot()
		s.line("serve: accepted=%d rejected=%d breaker=%d expired=%d",
			snap.ServeAccepted, snap.ServeRejected, snap.ServeBreaker, snap.ServeExpired)
	}

	if cfg.Rebuild {
		if cfg.TxCross {
			// One node's archived op stream cannot reconstruct cross-shard
			// transactions on its own: the flagged transactional records
			// carry no outcome, so a per-node replay would apply one
			// shard's half of an aborted transfer.
			s.line("rebuild: skipped (cross-shard stream spans back-ends)")
		} else if cfg.MultiWriter {
			// The rebuild re-executor maps archived slots onto the two
			// known structures; a striped table spans a meta slot plus
			// one slot per stripe, which it does not reassemble. Striped
			// post-crash recovery is covered by the crash matrix instead.
			s.line("rebuild: skipped (striped table spans multiple slots)")
		} else if cfg.Rebalance {
			// The elastic table's history spans both back-ends (each
			// migration restarts a partition's op log on its new home), so
			// one node's archive is not a complete stream. Migrated-state
			// recovery is covered by the crash matrix and the replay-
			// equivalence property instead.
			s.line("rebuild: skipped (elastic partitions span back-ends)")
		} else if err := s.rebuildCheck(); err != nil {
			return nil, err
		}
	}
	if cfg.MultiWriter {
		// Conflicts must be zero: the soak goroutine alternates the two
		// writers, so a stripe lock is always free at acquire time — any
		// conflict means a release failed to clear the word.
		s.line("multiwriter: puts=%d stripe_conflicts=%d+%d", s.mwTurn,
			s.mwFes[0].Stats().Snapshot().StripeConflicts,
			s.mwFes[1].Stats().Snapshot().StripeConflicts)
	}
	if cfg.Rebalance {
		// The handoff counters are pure functions of (seed, workload):
		// cutovers equals completed moves, double-logged ops counts the
		// live suffixes the windows shipped, and anything still marked
		// active would mean an unbalanced begin/finish pair.
		snap := fe.Stats().Snapshot()
		s.rep.Checks++
		if snap.MigrationsActive != 0 {
			s.violation("rebalance: %d migrations still active at soak end", snap.MigrationsActive)
		}
		s.line("rebalance: moves=%d cutovers=%d dblops=%d inflight=%d",
			s.rebMoves, snap.CutoverEpochs, snap.DoubleLoggedOps, snap.MigrationsActive)
	}
	if cfg.TxCross {
		snap := fe.Stats().Snapshot()
		s.line("txcross: cross=%d prepares=%d commits=%d aborts=%d indoubt=%d",
			s.pbank.CrossShardTxs(), snap.TxPrepares, snap.TxCrossCommits,
			snap.TxCrossAborts, snap.InDoubtResolved)
	}

	s.rep.Digest = plane.Digest()
	events := plane.EventLog()
	s.line("fault events: n=%d digest=%016x", len(events), s.rep.Digest)
	if cfg.Verbose {
		for _, e := range events {
			s.line("  %s", e)
		}
	}
	s.rep.Stats = fe.Stats().Snapshot()
	// Only scheduling-independent writer counters go in the report: log
	// appends, commits, allocations and the resilience counters are pure
	// functions of (seed, workload); replayer-side counters are not.
	s.line("final: oplogs=%d memlogs=%d txcommits=%d allocs=%d retries=%d failovers=%d",
		s.rep.Stats.OpLogs, s.rep.Stats.MemLogs, s.rep.Stats.TxCommits,
		s.rep.Stats.Allocs, s.rep.Stats.VerbRetries, s.rep.Stats.Failovers)
	s.line("checks=%d violations=%d", s.rep.Checks, s.rep.Violations)
	s.rep.MappedBytes = clu.MappedBytes()
	return s.rep, nil
}

func (s *soak) line(format string, args ...interface{}) {
	s.rep.Lines = append(s.rep.Lines, fmt.Sprintf(format, args...))
}

func (s *soak) violation(format string, args ...interface{}) {
	s.rep.Violations++
	s.line("VIOLATION: "+format, args...)
}

// drain settles both writer handles: flushes any batched logs, waits for
// the replayer, and clears the read overlays so the next operation's verb
// sequence is independent of replayer scheduling.
func (s *soak) drain() error {
	if s.srv != nil {
		resp, err := s.cli.Drain()
		return serveErr("drain", resp, err)
	}
	if s.pbank != nil {
		if err := s.pbank.Drain(); err != nil {
			return err
		}
	} else if err := s.bank.Table().Drain(); err != nil {
		return err
	}
	if s.mw[0] != nil {
		// Striped writers drain inside every shared-lock release; Flush
		// only settles batched state outside brackets.
		for _, w := range s.mw {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	if s.reb != nil {
		return s.reb.DrainAll()
	}
	return s.kv.Drain()
}

// conservingR crafts a DoTx selector hitting only money-conserving
// transactions: Balance (read-only), Amalgamate (moves everything), and
// SendPayment (transfers or aborts). Deposit/TransactSavings mint money
// and WriteCheck burns it, which would break the conservation invariant.
func conservingR(rng *rand.Rand) uint64 {
	base := rng.Uint64()
	var p uint64
	switch rng.Intn(3) {
	case 0:
		p = uint64(rng.Intn(15)) // Balance
	case 1:
		p = 45 + uint64(rng.Intn(15)) // Amalgamate
	default:
		p = 85 + uint64(rng.Intn(15)) // SendPayment
	}
	return base - base%100 + p
}

// soakLoop runs the workload, firing scheduled failures at op boundaries
// so transactions stay atomic with respect to orchestrated crashes (verb
// faults still land mid-transaction; that is what the op-log recovery
// path is for).
func (s *soak) soakLoop(sched []fault.Action) error {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x63686173)) // workload stream
	si := 0
	for i := 0; i < s.cfg.Ops; i++ {
		pending := ""
		for si < len(sched) && sched[si].AtOp == i {
			a := sched[si]
			si++
			switch a.Kind {
			case "promote":
				// Permanent crash: the next verb faults fatally and the
				// front-end drives the mirror promotion itself.
				s.clu.CrashBackend(0, true)
				pending = fmt.Sprintf("promote@%d", i)
			case "restart":
				// Transient crash: the node returns on the same NVM. The
				// old endpoint still reaches the (shared) device, so the
				// injector is cut first — the front-end must observe the
				// death and re-target the new incarnation. An open handoff
				// window is cut over first: its in-memory stream cursor
				// does not survive the source restart (the crash matrix
				// covers handoffs that die mid-window; the soak covers
				// windows and restarts interleaving).
				if s.rebMig != nil {
					if err := s.rebStep(); err != nil {
						return err
					}
				}
				s.inj.Disconnect()
				if s.inj2 != nil {
					s.inj2.Disconnect()
				}
				if _, _, err := s.clu.RestartBackend(0, true); err != nil {
					return err
				}
				pending = fmt.Sprintf("restart@%d", i)
			case "partition":
				s.inj.Partition(a.Arg)
			}
		}
		if s.reb != nil && i > 0 && i%rebEvery == 0 {
			if err := s.rebStep(); err != nil {
				return err
			}
		}
		if err := s.workOp(rng); err != nil {
			return fmt.Errorf("chaos: op %d: %w", i, err)
		}
		if pending != "" {
			s.verify(pending)
		}
	}
	return nil
}

// workOp performs one workload operation and settles the pipeline. The
// rng draw sequence is identical whether ops go direct or through the
// serve client, so the fault schedule lines up the same way per seed.
func (s *soak) workOp(rng *rand.Rand) error {
	p := rng.Float64()
	switch {
	case p < 0.5:
		r := conservingR(rng)
		if s.srv != nil {
			resp, err := s.cli.Tx(r, 0)
			if err := serveErr("tx", resp, err); err != nil {
				return err
			}
		} else if s.pbank != nil {
			if err := s.pbank.DoTx(r); err != nil {
				return err
			}
		} else if err := s.bank.DoTx(r); err != nil {
			return err
		}
	case p < 0.8:
		k := uint64(rng.Int63n(int64(s.cfg.Keys))) + 1
		val := make([]byte, 8+rng.Intn(40))
		rng.Read(val)
		if s.srv != nil {
			resp, err := s.cli.Put(k, val, 0)
			if err := serveErr("put", resp, err); err != nil {
				return err
			}
		} else if s.mw[0] != nil {
			// Alternate the two writers: every handoff of a stripe's lock
			// (release by one front-end, acquire by the other) exercises
			// the tail-hint resync under whatever faults are active.
			w := s.mw[s.mwTurn%2]
			s.mwTurn++
			if err := w.Put(k, val); err != nil {
				return err
			}
		} else if s.reb != nil {
			// Routed write: inside a handoff window the owning partition's
			// puts double-log to the migration destination.
			if err := s.reb.Put(k, val); err != nil {
				return err
			}
		} else if err := s.kv.Put(k, val); err != nil {
			return err
		}
		s.oracle[k] = val
	default:
		k := uint64(rng.Int63n(int64(s.cfg.Keys))) + 1
		var got []byte
		var ok bool
		if s.srv != nil {
			resp, err := s.cli.Get(k, 0)
			if err := serveErr("get", resp, err); err != nil {
				return err
			}
			got, ok = resp.Val, resp.Found
		} else if s.mw[0] != nil {
			var err error
			got, ok, err = s.mw[s.mwTurn%2].Get(k)
			if err != nil {
				return err
			}
		} else if s.reb != nil {
			var err error
			got, ok, err = s.reb.Get(k)
			if err != nil {
				return err
			}
		} else {
			var err error
			got, ok, err = s.kv.Get(k)
			if err != nil {
				return err
			}
		}
		want, exists := s.oracle[k]
		if exists != ok || (exists && !bytes.Equal(got, want)) {
			s.violation("writer read key=%d ok=%v want %d bytes", k, ok, len(want))
		}
	}
	return s.drain()
}

// verify checks the two invariants through a fresh reader front-end: the
// committed state survives on whatever node currently serves the role.
// In serve mode the server is paused around the check: Close joins the
// executor goroutine, making direct structure access well-ordered, and
// a fresh server takes over afterwards.
func (s *soak) verify(tag string) {
	if s.srv != nil {
		if err := s.serveStop(); err != nil {
			s.violation("verify[%s]: serve drain: %v", tag, err)
			return
		}
		defer func() {
			if err := s.serveStart(); err != nil {
				s.violation("verify[%s]: serve restart: %v", tag, err)
			}
		}()
	}
	if err := s.drain(); err != nil {
		s.violation("verify[%s]: drain: %v", tag, err)
		return
	}
	wantMoney := int64(s.cfg.Accounts) * moneyPerAccount
	var money int64
	var err error
	if s.pbank != nil {
		money, err = s.pbank.TotalMoney()
	} else {
		money, err = s.bank.TotalMoney()
	}
	if err != nil {
		s.violation("verify[%s]: writer TotalMoney: %v", tag, err)
		return
	}
	s.rep.Checks++
	if money != wantMoney {
		s.violation("verify[%s]: writer money=%d want %d", tag, money, wantMoney)
	}

	// Reader-side check: a separate front-end with its own endpoint reads
	// the promoted/restarted node through the seqlock path.
	_, conns, err := s.clu.NewFrontend(9, core.ModeR())
	if err != nil {
		s.violation("verify[%s]: reader connect: %v", tag, err)
		return
	}
	var rmoney int64
	if s.pbank != nil {
		rbank, oerr := txapp.OpenPartitionedSmallBank(conns, bankName, s.cfg.Accounts, false, dsOpts())
		if oerr != nil {
			s.violation("verify[%s]: reader open bank: %v", tag, oerr)
			return
		}
		rmoney, err = rbank.TotalMoney()
	} else {
		rbank, oerr := txapp.OpenSmallBank(conns[0], bankName, s.cfg.Accounts, false, dsOpts())
		if oerr != nil {
			s.violation("verify[%s]: reader open bank: %v", tag, oerr)
			return
		}
		rmoney, err = rbank.TotalMoney()
	}
	s.rep.Checks++
	if err != nil {
		s.violation("verify[%s]: reader TotalMoney: %v", tag, err)
	} else if rmoney != wantMoney {
		s.violation("verify[%s]: reader money=%d want %d", tag, rmoney, wantMoney)
	}
	var rget func(uint64) ([]byte, bool, error)
	if s.mw[0] != nil {
		rkv, err := ds.OpenStriped(conns[0], kvName, false, dsOpts())
		if err != nil {
			s.violation("verify[%s]: reader open kv: %v", tag, err)
			return
		}
		rget = rkv.Get
	} else if s.reb != nil {
		// The reader routes by the persisted versioned map alone: after
		// however many cutovers, it must land on each partition's current
		// home to find the committed keys.
		rkv, err := ds.OpenPartitioned(conns, kvName, false, dsOpts())
		if err != nil {
			s.violation("verify[%s]: reader open kv: %v", tag, err)
			return
		}
		rget = rkv.Get
	} else {
		rkv, err := ds.OpenHashTable(conns[0], kvName, false, dsOpts())
		if err != nil {
			s.violation("verify[%s]: reader open kv: %v", tag, err)
			return
		}
		rget = rkv.Get
	}
	bad := s.checkOracle(rget)
	s.rep.Checks++
	if bad != 0 {
		s.violation("verify[%s]: %d/%d committed keys wrong on reader", tag, bad, len(s.oracle))
	}
	s.line("verify[%s]: money=%d reader=%d keys=%d ok=%v", tag, money, rmoney, len(s.oracle), bad == 0 && money == wantMoney && rmoney == wantMoney)
	if s.cfg.MultiWriter {
		s.mirrorVerify(tag, conns[0])
	}
}

// mirrorVerify reads the committed keys back through a mirror replica
// front-end: after SyncMirrors, every stripe's seqlock SN on the mirror
// must match the primary's (zero staleness epochs — the assertion that
// bounds what mirror-served reads can observe), and every committed key
// must read back byte for byte off the replica device.
func (s *soak) mirrorVerify(tag string, primary *core.Conn) {
	s.clu.SyncMirrors(0)
	if len(s.clu.Mirrors[0]) == 0 {
		s.line("mirror[%s]: skipped (no replica attached)", tag)
		return
	}
	_, mconn, err := s.clu.NewMirrorFrontend(7, 0, 0, core.ModeR())
	if err != nil {
		s.violation("mirror[%s]: connect: %v", tag, err)
		return
	}
	mkv, err := ds.OpenStriped(mconn, kvName, false, dsOpts())
	if err != nil {
		s.violation("mirror[%s]: open kv: %v", tag, err)
		return
	}
	var maxLag uint64
	for _, h := range s.mw[0].Handles() {
		lag, err := cluster.MirrorStaleness(primary, mconn, h.Slot())
		if err != nil {
			s.violation("mirror[%s]: staleness: %v", tag, err)
			return
		}
		if lag > maxLag {
			maxLag = lag
		}
	}
	s.rep.Checks++
	if maxLag != 0 {
		s.violation("mirror[%s]: synced mirror still %d epochs stale", tag, maxLag)
	}
	bad := s.checkOracle(mkv.Get)
	s.rep.Checks++
	if bad != 0 {
		s.violation("mirror[%s]: %d/%d committed keys wrong on mirror", tag, bad, len(s.oracle))
	}
	s.line("mirror[%s]: lag=%d keys=%d ok=%v", tag, maxLag, len(s.oracle), maxLag == 0 && bad == 0)
}

// checkOracle reads every committed key in sorted order and counts
// mismatches against the oracle.
func (s *soak) checkOracle(get func(uint64) ([]byte, bool, error)) int {
	keys := make([]uint64, 0, len(s.oracle))
	for k := range s.oracle {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	bad := 0
	for _, k := range keys {
		got, ok, err := get(k)
		if err != nil || !ok || !bytes.Equal(got, s.oracle[k]) {
			bad++
		}
	}
	return bad
}

// rebuildCheck models total loss of the back-end and every replica: a
// brand-new node is formatted and the archived operation stream is
// re-executed through normal front-end write paths (§7.2 Case 4). Both
// structures must reconstruct to the exact committed state.
func (s *soak) rebuildCheck() error {
	bankSlot := s.bank.Table().Handle().Slot()
	kvSlot := s.kv.Handle().Slot()
	var rconn *core.Conn
	var rbank, rkv *ds.HashTable
	_, err := s.clu.RebuildFromArchive(0, s.clu.Archives[0], func(slot uint16, rec logrec.OpRecord) error {
		if rconn == nil {
			_, conns, err := s.clu.NewFrontend(8, core.ModeR())
			if err != nil {
				return err
			}
			rconn = conns[0]
			if rbank, err = ds.CreateHashTable(rconn, bankName, dsOpts()); err != nil {
				return err
			}
			if rkv, err = ds.CreateHashTable(rconn, kvName, dsOpts()); err != nil {
				return err
			}
		}
		switch slot {
		case bankSlot:
			return rbank.ReplayOp(rec)
		case kvSlot:
			return rkv.ReplayOp(rec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if rconn == nil {
		s.violation("rebuild: archive is empty")
		return nil
	}
	if err := rbank.Drain(); err != nil {
		return err
	}
	if err := rkv.Drain(); err != nil {
		return err
	}
	wantMoney := int64(s.cfg.Accounts) * moneyPerAccount
	nb, err := txapp.OpenSmallBank(rconn, bankName, s.cfg.Accounts, false, dsOpts())
	if err != nil {
		return err
	}
	money, err := nb.TotalMoney()
	s.rep.Checks++
	if err != nil {
		s.violation("rebuild: TotalMoney: %v", err)
	} else if money != wantMoney {
		s.violation("rebuild: money=%d want %d", money, wantMoney)
	}
	bad := s.checkOracle(func(k uint64) ([]byte, bool, error) { return rkv.Get(k) })
	s.rep.Checks++
	if bad != 0 {
		s.violation("rebuild: %d/%d committed keys wrong after archive replay", bad, len(s.oracle))
	}
	s.line("rebuild: money=%d keys=%d ok=%v", money, len(s.oracle), bad == 0 && money == wantMoney)
	return nil
}
