//! The writer loop and analyst handles.

use crate::cell::SnapshotCell;
use crate::stats::ServeStats;
use pmw_core::{Decision, OnlinePmw, PmwError, ScreenContext, ScreenedQuery, StateBackend};
use pmw_dp::{DpError, PrivacyBudget, ShardedAccountant};
use pmw_erm::ErmOracle;
use pmw_losses::CmLoss;
use pmw_obs::{NoopProbe, Probe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// How one served query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// SV `⊥`: answered free from the hypothesis minimizer `θ̂`.
    Free,
    /// SV `⊤`: the private oracle answered and an MW update committed.
    Update,
}

/// One served answer: the released vector and how it was produced.
#[derive(Debug, Clone)]
pub struct ServeAnswer {
    /// The released answer (`θ̂` on [`ServeOutcome::Free`], the oracle's
    /// `θ_t` on [`ServeOutcome::Update`]).
    pub values: Vec<f64>,
    /// Which path produced it.
    pub outcome: ServeOutcome,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of analyst handles (= privacy tenants).
    pub analysts: usize,
    /// Seed for the writer's RNG: the sparse vector's per-query noise and
    /// threshold redraws, oracle noise, MW update draws. (The first
    /// threshold was drawn when the mechanism was built.) With one analyst
    /// this makes serving bit-for-bit the same mechanism answered by an
    /// RNG seeded like the writer's.
    pub seed: u64,
    /// Explicit per-tenant shares of the oracle budget. `None` splits
    /// the mechanism's oracle slice (total budget minus the sparse-vector
    /// budget) evenly across analysts.
    pub shares: Option<Vec<PrivacyBudget>>,
}

impl ServeConfig {
    /// Config with `analysts` evenly-shared tenants.
    pub fn new(analysts: usize, seed: u64) -> Self {
        Self {
            analysts,
            seed,
            shares: None,
        }
    }
}

/// One queued query: the analyst's screen result plus everything the
/// writer needs to finish the round.
struct Request {
    analyst: usize,
    loss: Arc<dyn CmLoss>,
    screened: ScreenedQuery,
    queued_at: Instant,
    reply: Sender<Result<ServeAnswer, PmwError>>,
}

/// A per-analyst handle: runs the read phase locally against the cached
/// snapshot, then round-trips the writer for the (cheap) noise/commit
/// phase. One handle per tenant; handles are `Send` and independent.
pub struct AnalystHandle {
    id: usize,
    ctx: ScreenContext,
    cell: Arc<SnapshotCell>,
    cached: (u64, Arc<dyn pmw_core::ReadSnapshot>),
    tx: Sender<Request>,
}

impl AnalystHandle {
    /// This handle's analyst (tenant) id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Answer one CM query: refresh the cached snapshot (one atomic load
    /// unless an update was published), screen locally — the hypothesis
    /// solve and error query run on *this* thread, off the writer — then
    /// submit the screened request and block for the writer's verdict.
    pub fn answer(&mut self, loss: &dyn CmLoss) -> Result<ServeAnswer, PmwError> {
        // The writer needs an owned handle to the loss for the commit
        // path (and update-log backends retain it past the round).
        let shared = loss.clone_shared().ok_or(PmwError::LossMismatch(
            "serving requires a loss supporting clone_shared",
        ))?;
        if self.cell.epoch() != self.cached.0 {
            self.cached = self.cell.load();
        }
        let screened = self.ctx.screen(self.cached.1.as_ref(), loss)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Request {
                analyst: self.id,
                loss: shared,
                screened,
                queued_at: Instant::now(),
                reply: reply_tx,
            })
            .map_err(|_| PmwError::Degraded("serve writer has shut down"))?;
        reply_rx
            .recv()
            .map_err(|_| PmwError::Degraded("serve writer dropped a reply"))?
    }
}

/// Everything the writer thread hands back at [`PmwServer::join`].
pub struct ServeJoin<O: ErmOracle, B: StateBackend> {
    /// The mechanism, with its transcript (every served answer counted,
    /// every update round recorded) and privacy ledger — exactly the
    /// serialized record a sequential run would have produced.
    pub mechanism: OnlinePmw<O, B>,
    /// Outcome counts and contention samples.
    pub stats: ServeStats,
    /// The per-tenant budget shards (run `.audit()` for the merge proof).
    pub sharding: ShardedAccountant,
}

/// The serving front: spawns the writer thread owning the mechanism and
/// mints one [`AnalystHandle`] per tenant. Drop every handle, then
/// [`join`](PmwServer::join) to get the mechanism and ledgers back.
pub struct PmwServer<O: ErmOracle, B: StateBackend> {
    cell: Arc<SnapshotCell>,
    writer: JoinHandle<(OnlinePmw<O, B>, ServeStats, ShardedAccountant)>,
}

impl<O, B> PmwServer<O, B>
where
    O: ErmOracle + Send + 'static,
    B: StateBackend + Send + 'static,
{
    /// Spawn the writer thread and mint `config.analysts` handles.
    pub fn spawn(
        mech: OnlinePmw<O, B>,
        config: ServeConfig,
    ) -> Result<(Self, Vec<AnalystHandle>), PmwError> {
        Self::spawn_with_probe(mech, config, NoopProbe)
    }

    /// [`PmwServer::spawn`] with the writer loop reporting through
    /// `probe`: one round per served request (outcome-labelled), each
    /// decision's SV-screen span and margin gauges, the commit-phase spans
    /// of `⊤` rounds, and per-analyst `serve_analyst` notes at shutdown.
    pub fn spawn_with_probe<P: Probe + Send + 'static>(
        mech: OnlinePmw<O, B>,
        config: ServeConfig,
        probe: P,
    ) -> Result<(Self, Vec<AnalystHandle>), PmwError> {
        if config.analysts == 0 {
            return Err(PmwError::InvalidConfig(
                "serving needs at least one analyst",
            ));
        }
        let ctx = mech.screen_context();
        let cell = Arc::new(SnapshotCell::new(mech.snapshot()?));

        // Tenant shares partition the oracle slice of the total budget
        // (the sparse-vector slice is a shared, construction-time cost
        // recorded once in the mechanism's own ledger).
        let total = mech.config().budget;
        let sv_budget = mech.derived().sv_budget;
        let oracle_slice = PrivacyBudget::new(
            total.epsilon() - sv_budget.epsilon(),
            (total.delta() - sv_budget.delta()).max(0.0),
        )
        .map_err(PmwError::from)?;
        let sharded = match config.shares.clone() {
            Some(shares) => {
                if shares.len() != config.analysts {
                    return Err(PmwError::InvalidConfig(
                        "one tenant share per analyst is required",
                    ));
                }
                ShardedAccountant::with_shares(oracle_slice, shares).map_err(PmwError::from)?
            }
            None => {
                ShardedAccountant::even(oracle_slice, config.analysts).map_err(PmwError::from)?
            }
        };

        let (tx, rx) = mpsc::channel();
        let handles: Vec<AnalystHandle> = (0..config.analysts)
            .map(|id| AnalystHandle {
                id,
                ctx: ctx.clone(),
                cell: Arc::clone(&cell),
                cached: cell.load(),
                tx: tx.clone(),
            })
            .collect();
        drop(tx); // the writer exits when the last handle drops

        let oracle_budget = mech.derived().oracle_budget;
        let stats = ServeStats {
            per_analyst: vec![Default::default(); config.analysts],
            ..ServeStats::default()
        };
        let writer_cell = Arc::clone(&cell);
        let writer = std::thread::spawn(move || {
            Writer {
                mech,
                ctx,
                rng: StdRng::seed_from_u64(config.seed),
                cell: writer_cell,
                sharded,
                oracle_budget,
                seq: 0,
                stats,
                probe,
                rx,
            }
            .run()
        });
        Ok((Self { cell, writer }, handles))
    }

    /// The publication cell (e.g. to watch the epoch from outside).
    pub fn snapshot_cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// Wait for the writer to drain and exit, then hand back the
    /// mechanism, the serving stats, and the tenant shards. Blocks until
    /// every [`AnalystHandle`] has been dropped.
    pub fn join(self) -> Result<ServeJoin<O, B>, PmwError> {
        let (mechanism, stats, sharding) = self
            .writer
            .join()
            .map_err(|_| PmwError::Degraded("serve writer thread panicked"))?;
        Ok(ServeJoin {
            mechanism,
            stats,
            sharding,
        })
    }
}

/// The writer-thread state: the only owner of the mechanism and the RNG.
struct Writer<O: ErmOracle, B: StateBackend, P: Probe> {
    mech: OnlinePmw<O, B>,
    /// The mechanism's screen context, for writer-side re-screens.
    ctx: ScreenContext,
    rng: StdRng,
    cell: Arc<SnapshotCell>,
    sharded: ShardedAccountant,
    oracle_budget: PrivacyBudget,
    /// Served-request sequence number for probe round events.
    seq: usize,
    stats: ServeStats,
    probe: P,
    rx: Receiver<Request>,
}

impl<O: ErmOracle, B: StateBackend, P: Probe> Writer<O, B, P> {
    fn run(mut self) -> (OnlinePmw<O, B>, ServeStats, ShardedAccountant) {
        self.probe.run_start("pmw-serve", "writer loop");
        while let Ok(first) = self.rx.recv() {
            // Every analyst blocks on its reply, so a batch holds at most
            // one request per analyst.
            let mut batch = vec![first];
            batch.extend(self.rx.try_iter());
            self.stats.batches += 1;
            self.stats.requests += batch.len() as u64;
            let now = Instant::now();
            for req in &batch {
                let wait = now.saturating_duration_since(req.queued_at).as_nanos() as u64;
                self.stats.per_analyst[req.analyst].wait_ns.push(wait);
            }
            self.process_group(batch);
        }
        self.flush_notes();
        self.probe.run_end();
        (self.mech, self.stats, self.sharded)
    }

    /// Answer one group, batch-style: one mechanism decision per pass. On
    /// `⊥` every member answers free; on `⊤` the arg-max member commits
    /// and the others loop around — now stale, so they re-screen against
    /// the fresh state before the next decision.
    fn process_group(&mut self, mut group: Vec<Request>) {
        while !group.is_empty() {
            // Admission, before any noise is drawn: the mechanism's halted
            // and query-limit checks, counting the members already
            // admitted this pass (a `⊥` answers them all), then the
            // tenant's share.
            let mut admitted = Vec::with_capacity(group.len());
            for req in group.drain(..) {
                if let Err(e) = self.mech.admit(admitted.len()) {
                    self.reply_refused(req, e);
                } else if !self.sharded.can_spend(req.analyst, self.oracle_budget) {
                    // Data-independent admission check: if this tenant's
                    // share cannot cover the update a `⊤` would commit,
                    // refuse before the query joins any SV test.
                    self.stats.per_analyst[req.analyst].rejected += 1;
                    self.reply_err(
                        req,
                        PmwError::Dp(DpError::InvalidBudget(
                            "tenant privacy share cannot cover another update",
                        )),
                        "rejected",
                    );
                } else {
                    admitted.push(req);
                }
            }

            // Freshness: a screen taken against an older hypothesis is
            // still privacy-sound (same sensitivity) but would answer
            // from a superseded θ̂ — re-run the read phase writer-side.
            // The state's own count: a failed round burns an update slot
            // but records no update.
            let updates = self.mech.state().updates_recorded();
            let mut fresh = Vec::with_capacity(admitted.len());
            for mut req in admitted {
                if req.screened.snapshot_updates() == updates {
                    fresh.push(req);
                    continue;
                }
                let rescreened = self
                    .mech
                    .snapshot()
                    .and_then(|snap| self.ctx.screen(snap.as_ref(), req.loss.as_ref()));
                match rescreened {
                    Ok(screened) => {
                        req.screened = screened;
                        self.stats.rescreens += 1;
                        fresh.push(req);
                    }
                    Err(e) => self.reply_err(req, e, "error"),
                }
            }
            if fresh.is_empty() {
                return;
            }

            let batch: Vec<_> = fresh
                .iter()
                .map(|req| (req.loss.as_ref(), &req.screened))
                .collect();
            let decided = self
                .mech
                .decide_with_probe(&batch, &mut self.rng, &self.probe);
            match decided {
                Err(e) => {
                    for req in fresh {
                        self.reply_refused(req, e.clone());
                    }
                    return;
                }
                Ok(Decision::Free) => {
                    for req in fresh {
                        self.stats.per_analyst[req.analyst].free += 1;
                        let answer = ServeAnswer {
                            values: req.screened.theta_hat().to_vec(),
                            outcome: ServeOutcome::Free,
                        };
                        self.reply_ok(req, answer, "free");
                    }
                    return;
                }
                Ok(Decision::Update { index, answer }) => {
                    let req = fresh.remove(index);
                    // Mirror the mechanism's up-front oracle charge into
                    // the tenant's shard (failed commits pay too, exactly
                    // like the sequential ledger). Admission checked
                    // `can_spend` this pass, so this cannot be refused.
                    self.sharded
                        .spend(req.analyst, "erm-oracle", self.oracle_budget)
                        .expect("admission verified the tenant share");
                    // Publish whatever state the commit left (on failure
                    // the transactional backends have rolled back; the
                    // fresh snapshot is still the authoritative view).
                    if let Ok(snapshot) = self.mech.snapshot() {
                        self.cell.publish(snapshot);
                    }
                    match answer {
                        Ok(values) => {
                            self.stats.per_analyst[req.analyst].updates += 1;
                            let answer = ServeAnswer {
                                values,
                                outcome: ServeOutcome::Update,
                            };
                            self.reply_ok(req, answer, "update");
                        }
                        Err(e) => {
                            self.stats.per_analyst[req.analyst].failed += 1;
                            self.reply_err(req, e, "failed");
                        }
                    }
                    group = fresh;
                }
            }
        }
    }

    /// Reply with a refusal from the mechanism (halted, query limit, or a
    /// decision that failed before its draw).
    fn reply_refused(&mut self, req: Request, e: PmwError) {
        let label = match e {
            PmwError::Halted => {
                self.stats.halted_replies += 1;
                "halted"
            }
            PmwError::QueryLimitReached => "limit",
            _ => "error",
        };
        self.reply_err(req, e, label);
    }

    fn reply_ok(&mut self, req: Request, answer: ServeAnswer, label: &'static str) {
        self.mark_round(label);
        let _ = req.reply.send(Ok(answer));
    }

    fn reply_err(&mut self, req: Request, e: PmwError, label: &'static str) {
        self.mark_round(label);
        let _ = req.reply.send(Err(e));
    }

    fn mark_round(&mut self, label: &'static str) {
        if P::ENABLED {
            self.probe.round_begin(self.seq);
            self.probe.round_end(self.seq, label);
        }
        self.seq += 1;
    }

    fn flush_notes(&self) {
        if !P::ENABLED {
            return;
        }
        for (id, a) in self.stats.per_analyst.iter().enumerate() {
            self.probe.note(
                "serve_analyst",
                &format!(
                    "id={id} free={} updates={} failed={} rejected={} wait_p99_ns={}",
                    a.free,
                    a.updates,
                    a.failed,
                    a.rejected,
                    a.wait_p99_ns()
                ),
            );
        }
        self.probe.note(
            "serve_writer",
            &format!(
                "batches={} requests={} rescreens={} halted={} wait_p99_ns={}",
                self.stats.batches,
                self.stats.requests,
                self.stats.rescreens,
                self.stats.halted_replies,
                self.stats.wait_p99_ns()
            ),
        );
    }
}
