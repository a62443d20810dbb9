//! The real concurrent runtime front end: actual worker threads behind
//! the service's admission/breaker semantics, driven over the wire
//! protocol ([`crate::wire`]).
//!
//! # Two pacing modes, one admission state machine
//!
//! Every admission decision — the arrival sheds, the queue-wait debit,
//! the ladder and grant, pricing, breaker feedback and the terminal
//! tally — is made by the same `Admission` state machine that the
//! virtual-tick [`Service`](crate::service::Service) and the
//! [`Frontend`](crate::frontend::Frontend) drive. The engine here owns
//! only what a real server adds: worker threads, the wire, the ledger it
//! shares with its workers, and two paces. The sim-vs-real differential
//! therefore tests threads, wire and clocks, not a second copy of the
//! rules.
//!
//! * **Virtual pace** ([`Pace::Virtual`]) — the differential-oracle
//!   mode. The client writes the whole trace over the wire and closes;
//!   the server decodes and authenticates every frame, then replays the
//!   arrivals on the virtual tick clock. Selections run on real worker
//!   threads (a same-tick dispatch batch executes concurrently), but
//!   settlement is deterministic: completions are drained to quiescence
//!   before the clock advances, sorted by their dispatch-order sequence
//!   numbers, and settled in that order. Racy completion-arrival order
//!   therefore cannot change a single counter — which is what lets CI
//!   re-run the real runtime three times and demand byte-identical
//!   accounting.
//! * **Wall pace** ([`Pace::Wall`]) — arrivals are paced by real
//!   sleeps (trace tick × calibrated `ns_per_tick`), deadlines are wall
//!   deadlines mapped through the same tick economy, and workers settle
//!   the shared [`TerminalLedger`] themselves at completion time:
//!   genuinely racing settlements, first writer wins, hedge twins
//!   deduplicate through the ledger. Only invariants (terminal
//!   accounting, exactly-one-response-per-id) are asserted here, not
//!   bit-determinism.
//!
//! # Where the runtime legitimately diverges from the sim
//!
//! The sim settles a request *at dispatch* (its event loop knows the
//! outcome instantly); the runtime can only settle when the worker
//! finishes. Three bounded consequences, absorbed by the differential
//! tolerance and spelled out in DESIGN.md: hedge twins that are both
//! in flight both consume a worker; breaker feedback lands after a
//! dispatch batch instead of between its members; and backoff/jitter
//! draws happen in a different order on the shared stream, so they
//! yield different values than the sim's draws.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dams_core::{
    CoreMetrics, DegradedSelection, Instance, LadderExec, SelectError, SelectionPolicy,
};
use dams_obs::{Mode, Registry};
use dams_workload::ArrivalEvent;

use crate::admission::{
    Admission, Arrival, Dispatch, Finish, Grant, Queues, Shed, TerminalFate, TerminalLedger,
};
use crate::clock::MonoClock;
use crate::obs::RuntimeMetrics;
use crate::service::{EventKind, Events, Request, SvcConfig, SvcReport};
use crate::wire::{
    duplex_pair, write_frame, DuplexEnd, FrameReader, Hello, Message, WireError, WireOutcome,
    WireRequest, WireResponse,
};

/// How request arrivals are paced through the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Replay on the virtual tick clock (deterministic; the
    /// differential-oracle mode).
    Virtual,
    /// Pace arrivals in real time at `ns_per_tick` nanoseconds per
    /// virtual tick (from [`crate::clock::calibrate_wall`]).
    Wall { ns_per_tick: u64 },
}

/// Which byte transport carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process cross-wired pipes ([`duplex_pair`]).
    Duplex,
    /// A real loopback TCP connection.
    Tcp,
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Duplex => write!(f, "duplex"),
            Transport::Tcp => write!(f, "tcp"),
        }
    }
}

/// Runtime configuration: the service semantics plus the runtime's own
/// pacing/transport/session choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    pub svc: SvcConfig,
    pub pace: Pace,
    pub transport: Transport,
    /// Wallet sessions the client opens (requests carry a tenant id;
    /// `trace.tenant` should stay below this).
    pub tenants: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            svc: SvcConfig::default(),
            pace: Pace::Virtual,
            transport: Transport::Duplex,
            tenants: 3,
        }
    }
}

/// What the client observed on its side of the wire — the independent
/// cross-check against the server's report (wire fidelity: every unique
/// id gets exactly one terminal response).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientTally {
    pub responses: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    pub deadline_met: u64,
    /// Responses for an id already answered (must stay 0).
    pub duplicates: u64,
}

/// Everything one runtime run produced.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Sim-comparable accounting (same shape the virtual-tick service
    /// reports, including the deterministic snapshot).
    pub svc: SvcReport,
    pub client: ClientTally,
    /// Frames the server decoded (hellos + requests + shutdown).
    pub frames_received: u64,
    /// Frames the server rejected at decode (0 on a clean transport).
    pub frames_rejected: u64,
    /// Wallet sessions opened.
    pub sessions: u64,
    /// Wall-clock sidecar snapshot ([`Mode::WallClock`]): only the
    /// nanosecond timers, rendered in full. Empty-ish in virtual pace.
    pub wall_snapshot: String,
}

// ---------------------------------------------------------------------
// Transport plumbing
// ---------------------------------------------------------------------

enum Channel {
    Duplex(DuplexEnd),
    Tcp(TcpStream),
}

impl Channel {
    fn try_clone(&self) -> Result<Channel, WireError> {
        match self {
            Channel::Duplex(d) => Ok(Channel::Duplex(d.clone())),
            Channel::Tcp(t) => t
                .try_clone()
                .map(Channel::Tcp)
                .map_err(|e| WireError::Io(e.to_string())),
        }
    }

    fn close_write(&self) {
        match self {
            Channel::Duplex(d) => d.close(),
            Channel::Tcp(t) => {
                let _ = t.shutdown(NetShutdown::Write);
            }
        }
    }
}

impl Read for Channel {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Channel::Duplex(d) => d.read(buf),
            Channel::Tcp(t) => t.read(buf),
        }
    }
}

impl Write for Channel {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Channel::Duplex(d) => d.write(buf),
            Channel::Tcp(t) => t.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Channel::Duplex(d) => d.flush(),
            Channel::Tcp(t) => t.flush(),
        }
    }
}

fn make_transport(transport: Transport) -> Result<(Channel, Channel), WireError> {
    match transport {
        Transport::Duplex => {
            let (a, b) = duplex_pair();
            Ok((Channel::Duplex(a), Channel::Duplex(b)))
        }
        Transport::Tcp => {
            let io_err = |e: std::io::Error| WireError::Io(e.to_string());
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
            let addr = listener.local_addr().map_err(io_err)?;
            let client = TcpStream::connect(addr).map_err(io_err)?;
            let (server, _) = listener.accept().map_err(io_err)?;
            client.set_nodelay(true).map_err(io_err)?;
            server.set_nodelay(true).map_err(io_err)?;
            Ok((Channel::Tcp(client), Channel::Tcp(server)))
        }
    }
}

fn wire_request(e: &ArrivalEvent) -> WireRequest {
    WireRequest {
        tick: e.tick,
        id: e.id,
        tenant: e.tenant,
        target: e.target,
        interactive: e.interactive,
        budget: e.budget,
        require_exact: e.require_exact,
    }
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Job {
    /// Dispatch-order sequence — the deterministic settlement key.
    seq: u64,
    worker: usize,
    grant: Grant,
}

struct Done {
    job: Job,
    outcome: Result<DegradedSelection, SelectError>,
    /// Wall pace only: whether this worker's inline settlement won.
    settled: bool,
    /// Wall pace only: the clock tick the worker finished at.
    finish_tick: u64,
}

/// Wall-pace inline settlement context handed to each worker.
struct InlineSettle {
    ledger: Arc<TerminalLedger>,
    clock: MonoClock,
    ns_per_tick: u64,
    metrics: RuntimeMetrics,
}

fn worker_loop(
    instance: &Instance,
    policy: SelectionPolicy,
    bfs_workers: usize,
    core: CoreMetrics,
    jobs: mpsc::Receiver<Job>,
    done: mpsc::Sender<ServerMsg>,
    inline: Option<InlineSettle>,
) {
    let exec = LadderExec {
        workers: bfs_workers,
        cache: None,
        modular: None,
    };
    while let Ok(job) = jobs.recv() {
        let started = Instant::now();
        let outcome = job.grant.select(instance, policy, &core, &exec);
        let mut settled = false;
        let mut finish_tick = 0;
        if let Some(inl) = &inline {
            // Racing settlement: first twin to reach the ledger wins.
            finish_tick = inl.clock.now();
            let fate = job.grant.fate(&outcome, finish_tick);
            settled = inl.ledger.settle(job.grant.req.id, fate);
            inl.metrics
                .wall_service
                .record(started.elapsed().as_nanos() as u64);
            let latency = finish_tick.saturating_sub(job.grant.enqueued);
            inl.metrics
                .wall_latency
                .record(latency.saturating_mul(inl.ns_per_tick));
        }
        let done_msg = ServerMsg::Done(Done {
            job,
            outcome,
            settled,
            finish_tick,
        });
        if done.send(done_msg).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Shared engine state
// ---------------------------------------------------------------------

/// The server engine: queues, workers, wire responses and both paces
/// around one [`Admission`] state machine. One instance serves one
/// connection.
struct Engine<'w> {
    adm: Admission,
    registry: Registry,
    rt_metrics: RuntimeMetrics,
    queues: Queues,
    idle: VecDeque<usize>,
    /// Virtual pace: every timed event. Wall pace: retry and hedge
    /// re-arrivals only.
    events: Events,
    job_tx: Vec<mpsc::Sender<Job>>,
    /// Worker completions, plus decoded frames in wall pace.
    inbox: mpsc::Receiver<ServerMsg>,
    resp: &'w mut Channel,
    next_seq: u64,
    in_flight: usize,
}

impl<'w> Engine<'w> {
    /// Write the terminal response for `id`, if this engine settled it.
    fn respond(&mut self, id: u64, fate: Option<TerminalFate>) -> Result<(), WireError> {
        let outcome = match fate {
            None => return Ok(()),
            Some(TerminalFate::Completed { met, degraded }) => {
                WireOutcome::Completed { met, degraded }
            }
            Some(TerminalFate::Shed(r)) => WireOutcome::Shed(r),
            Some(TerminalFate::Failed) => WireOutcome::Failed,
        };
        self.rt_metrics.frames_sent.inc();
        write_frame(self.resp, &Message::Response(WireResponse { id, outcome }))
    }

    /// Count one decoded frame; returns the request it carries, if any.
    fn on_frame(&self, msg: Message) -> Option<WireRequest> {
        let rt = &self.rt_metrics;
        if let Message::Response(_) = msg {
            // A response from the client side is a protocol violation.
            rt.frames_rejected.inc();
            return None;
        }
        rt.frames_received.inc();
        match msg {
            Message::Request(r) => Some(r),
            Message::Hello(_) => {
                rt.sessions.inc();
                None
            }
            _ => None,
        }
    }

    fn on_arrival(
        &mut self,
        now: u64,
        req: Request,
        attempt: u32,
        hedge: bool,
    ) -> Result<(), WireError> {
        match self.adm.arrive(now, req, attempt, hedge, Some(&self.queues)) {
            Arrival::Duplicate => Ok(()),
            Arrival::Admitted(q) => {
                self.queues.push(q);
                Ok(())
            }
            Arrival::Shed(shed) => self.on_shed(req.id, shed),
        }
    }

    fn on_shed(&mut self, id: u64, shed: Shed) -> Result<(), WireError> {
        self.events.schedule(shed.retry);
        let fate = shed.answered.then_some(TerminalFate::Shed(shed.reason));
        self.respond(id, fate)
    }

    /// Pair idle workers with queued requests; jobs go to real threads.
    fn dispatch_all(&mut self, now: u64) -> Result<(), WireError> {
        while !self.idle.is_empty() {
            let Some(q) = self.queues.pop(&self.adm) else { break };
            let worker = self.idle.pop_front().expect("an idle worker");
            let grant = match self.adm.dispatch(now, q) {
                Dispatch::Run(grant) => grant,
                Dispatch::Shed(shed) => {
                    self.idle.push_back(worker);
                    self.on_shed(q.req.id, shed)?;
                    continue;
                }
            };
            let job = Job {
                seq: self.next_seq,
                worker,
                grant,
            };
            self.next_seq += 1;
            if self.job_tx[worker].send(job).is_ok() {
                self.in_flight += 1;
            } else {
                // Worker died (cannot happen absent a panic); fail the id
                // so accounting still closes.
                self.idle.push_back(worker);
                let fate = self.adm.abandon(&grant);
                self.respond(grant.req.id, fate)?;
            }
        }
        Ok(())
    }

    /// Settle one completion and answer its id if this settlement won.
    /// Returns the finish tick.
    fn settle(&mut self, done: Done, finish: Finish<'_>) -> Result<u64, WireError> {
        let grant = done.job.grant;
        let settled = self.adm.settle(&grant, &done.outcome, finish);
        self.respond(grant.req.id, settled.answer)?;
        Ok(settled.finish)
    }
}

// ---------------------------------------------------------------------
// Virtual-pace server
// ---------------------------------------------------------------------

fn run_virtual_server(
    engine: &mut Engine<'_>,
    arrivals: Vec<WireRequest>,
) -> Result<u64, WireError> {
    // The event heap: trace arrivals + retries/hedges + worker frees.
    for r in arrivals {
        let arrival = EventKind::Arrival {
            req: r.to_request(),
            attempt: 1,
            hedge: false,
        };
        engine.events.push(r.tick, arrival);
    }
    let mut final_tick = 0u64;
    loop {
        // Deterministic settlement: drain every in-flight completion
        // before the clock can move, then settle in dispatch order. A
        // twin that settled while this one was in flight — real-runtime
        // semantics the sim cannot exhibit — leaves only burned work.
        if engine.in_flight > 0 {
            let mut batch = Vec::with_capacity(engine.in_flight);
            while engine.in_flight > 0 {
                let Ok(ServerMsg::Done(done)) = engine.inbox.recv() else {
                    return Err(WireError::Io("worker pool hung up".into()));
                };
                engine.in_flight -= 1;
                batch.push(done);
            }
            batch.sort_by_key(|d| d.job.seq);
            for done in batch {
                let worker = done.job.worker;
                let finish = engine.settle(done, Finish::Priced)?;
                engine.events.push(finish, EventKind::WorkerFree(worker));
                final_tick = final_tick.max(finish);
            }
        }
        let Some((now, kind)) = engine.events.pop_due(u64::MAX) else { break };
        final_tick = final_tick.max(now);
        match kind {
            EventKind::Arrival { req, attempt, hedge } => {
                engine.on_arrival(now, req, attempt, hedge)?;
            }
            EventKind::WorkerFree(w) => engine.idle.push_back(w),
        }
        engine.dispatch_all(now)?;
    }
    Ok(final_tick)
}

// ---------------------------------------------------------------------
// Wall-pace server
// ---------------------------------------------------------------------

/// What the server's engine loop receives: worker completions (both
/// paces) and, in wall pace, the reader thread's frames.
enum ServerMsg {
    Frame(Message),
    ReaderDone(Result<(), WireError>),
    Done(Done),
}

fn run_wall_server(
    engine: &mut Engine<'_>,
    clock: MonoClock,
    ns_per_tick: u64,
) -> Result<u64, WireError> {
    let mut reader_done = false;
    loop {
        let now = clock.now();
        while let Some((_due, kind)) = engine.events.pop_due(now) {
            if let EventKind::Arrival { req, attempt, hedge } = kind {
                engine.on_arrival(now, req, attempt, hedge)?;
            }
        }
        engine.dispatch_all(clock.now())?;
        if reader_done
            && engine.in_flight == 0
            && engine.queues.is_empty()
            && engine.events.is_empty()
        {
            break;
        }
        let timeout = match engine.events.next_due() {
            Some(due) => {
                let ticks = due.saturating_sub(clock.now());
                Duration::from_nanos(ticks.saturating_mul(ns_per_tick).clamp(50_000, 5_000_000))
            }
            None => Duration::from_micros(500),
        };
        match engine.inbox.recv_timeout(timeout) {
            Ok(ServerMsg::Frame(msg)) => {
                if let Some(r) = engine.on_frame(msg) {
                    engine.on_arrival(clock.now(), r.to_request(), 1, false)?;
                }
            }
            Ok(ServerMsg::ReaderDone(res)) => {
                res?;
                reader_done = true;
            }
            Ok(ServerMsg::Done(done)) => {
                // The worker already raced the ledger; the engine mirrors
                // the winner into metrics and the response stream.
                engine.in_flight -= 1;
                let worker = done.job.worker;
                let finish = Finish::Raced {
                    at: done.finish_tick,
                    won: done.settled,
                };
                engine.settle(done, finish)?;
                engine.idle.push_back(worker);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(WireError::Io("wall server channel hung up".into()));
            }
        }
    }
    Ok(clock.now())
}

// ---------------------------------------------------------------------
// Top-level runner
// ---------------------------------------------------------------------

/// Run the full client/server exchange for one trace and report both
/// sides. See the module docs for the two pacing modes.
pub fn run_runtime(
    instance: &Instance,
    policy: SelectionPolicy,
    cfg: &RuntimeConfig,
    trace: &[ArrivalEvent],
) -> Result<RuntimeReport, WireError> {
    let (client, server) = make_transport(cfg.transport)?;
    let tenants = cfg.tenants.max(1);
    let trace_owned: Vec<ArrivalEvent> = trace.to_vec();
    let pace = cfg.pace;

    std::thread::scope(|s| -> Result<RuntimeReport, WireError> {
        // Client writer: sessions, the paced trace, then shutdown.
        let writer_chan = client.try_clone()?;
        let writer = s.spawn(move || -> Result<(), WireError> {
            let mut w = writer_chan;
            for t in 0..tenants {
                write_frame(&mut w, &Message::Hello(Hello { tenant: t }))?;
            }
            let origin = Instant::now();
            for e in &trace_owned {
                if let Pace::Wall { ns_per_tick } = pace {
                    let due = Duration::from_nanos(e.tick.saturating_mul(ns_per_tick));
                    let elapsed = origin.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                }
                write_frame(&mut w, &Message::Request(wire_request(e)))?;
            }
            write_frame(&mut w, &Message::Shutdown)?;
            w.close_write();
            Ok(())
        });

        // Client reader: tally terminal responses until server EOF.
        let reader = s.spawn(move || -> Result<ClientTally, WireError> {
            let mut tally = ClientTally::default();
            let mut seen = std::collections::HashSet::new();
            let mut rd = FrameReader::new(client);
            while let Some(msg) = rd.read_frame()? {
                if let Message::Response(r) = msg {
                    tally.responses += 1;
                    if !seen.insert(r.id) {
                        tally.duplicates += 1;
                        continue;
                    }
                    match r.outcome {
                        WireOutcome::Completed { met, .. } => {
                            tally.completed += 1;
                            if met {
                                tally.deadline_met += 1;
                            }
                        }
                        WireOutcome::Shed(_) => tally.shed += 1,
                        WireOutcome::Failed => tally.failed += 1,
                    }
                }
            }
            Ok(tally)
        });

        let server = run_server(s, instance, policy, cfg, server)?;

        writer.join().expect("client writer panicked")?;
        let client = reader.join().expect("client reader panicked")?;
        Ok(RuntimeReport { client, ..server })
    })
}

fn run_server<'scope, 'env>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    instance: &'env Instance,
    policy: SelectionPolicy,
    cfg: &RuntimeConfig,
    server: Channel,
) -> Result<RuntimeReport, WireError>
where
    'env: 'scope,
{
    let registry = Registry::new();
    let rt_metrics = RuntimeMetrics::in_registry(&registry);
    let ledger = Arc::new(TerminalLedger::new());
    let workers = cfg.svc.workers.max(1);

    // Per-worker job channels + one shared engine inbox.
    let mut job_tx = Vec::with_capacity(workers);
    let (inbox_tx, inbox) = mpsc::channel::<ServerMsg>();
    let wall = match cfg.pace {
        Pace::Wall { ns_per_tick } => Some(MonoClock::wall(ns_per_tick.max(1))),
        Pace::Virtual => None,
    };
    for _ in 0..workers {
        let (tx, rx) = mpsc::channel::<Job>();
        job_tx.push(tx);
        let core = CoreMetrics::in_registry(&registry);
        let inline = wall.map(|clock| InlineSettle {
            ledger: Arc::clone(&ledger),
            clock,
            ns_per_tick: match cfg.pace {
                Pace::Wall { ns_per_tick } => ns_per_tick.max(1),
                Pace::Virtual => 1,
            },
            metrics: rt_metrics.clone(),
        });
        let bfs_workers = cfg.svc.bfs_workers.max(1);
        let done = inbox_tx.clone();
        s.spawn(move || {
            worker_loop(instance, policy, bfs_workers, core, rx, done, inline);
        });
    }

    let mut resp_chan = server.try_clone()?;
    let mut engine = Engine {
        adm: Admission::new(cfg.svc, cfg.svc.seed ^ 0x5e1e_c75e, &registry, Some(ledger)),
        rt_metrics: rt_metrics.clone(),
        queues: Queues::default(),
        idle: (0..workers).collect(),
        events: Events::default(),
        job_tx,
        inbox,
        resp: &mut resp_chan,
        next_seq: 0,
        in_flight: 0,
        registry,
    };

    let final_tick = match cfg.pace {
        Pace::Virtual => {
            // Phase 1: pull the entire trace off the wire (every frame
            // decoded + digest-checked), then replay deterministically.
            let mut reader = FrameReader::new(server);
            let mut arrivals = Vec::new();
            loop {
                match reader.read_frame() {
                    Ok(Some(msg)) => arrivals.extend(engine.on_frame(msg)),
                    Ok(None) => break,
                    Err(e) => {
                        // A corrupt frame aborts the whole session: the
                        // stream is self-authenticating, not self-healing.
                        engine.rt_metrics.frames_rejected.inc();
                        return Err(e);
                    }
                }
            }
            drop(inbox_tx);
            run_virtual_server(&mut engine, arrivals)?
        }
        Pace::Wall { ns_per_tick } => {
            // Reader thread feeds the unified engine channel.
            let rtx = inbox_tx;
            s.spawn(move || {
                let mut reader = FrameReader::new(server);
                loop {
                    match reader.read_frame() {
                        Ok(Some(msg)) => {
                            if rtx.send(ServerMsg::Frame(msg)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => {
                            let _ = rtx.send(ServerMsg::ReaderDone(Ok(())));
                            return;
                        }
                        Err(e) => {
                            let _ = rtx.send(ServerMsg::ReaderDone(Err(e)));
                            return;
                        }
                    }
                }
            });
            let clock = wall.expect("wall pace has a clock");
            run_wall_server(&mut engine, clock, ns_per_tick.max(1))?
        }
    };

    // Stop the worker pool (their job senders live in the engine).
    engine.job_tx.clear();
    let svc = engine.adm.report(final_tick, &engine.registry);
    let wall_snapshot = engine.registry.snapshot().render_text(Mode::WallClock);
    drop(engine);
    resp_chan.close_write();
    Ok(RuntimeReport {
        svc,
        client: ClientTally::default(),
        frames_received: rt_metrics.frames_received.get(),
        frames_rejected: rt_metrics.frames_rejected.get(),
        sessions: rt_metrics.sessions.get(),
        wall_snapshot,
    })
}
