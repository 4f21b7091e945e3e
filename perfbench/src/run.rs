//! The two kinds of run.
//!
//! **Untraced** (`--trace 0`): server cycles back to back until the time
//! is up. Each cycle starts a fresh server process, times one set-up
//! (mapping upload to first certain answer), serves the workload's reads
//! for a set time or a set number of reads, applies writes, reads the
//! process's peak RSS and stops it. Every sample is kept; the metrics are
//! medians and percentiles over all of them.
//!
//! **Traced** (`--trace 1`): a fixed script per workload — the same
//! set-up, a fixed prefix of the read stream and a fixed number of writes,
//! one client — run twice on fresh servers: once without tracing and
//! once with spans around in-process calls into every layer on the same
//! inputs. The per-layer metrics come from the second pass; the
//! difference between the two passes is the tracing overhead. Because
//! the script is fixed, every count it reports repeats exactly. A layer's
//! `self_ms` sums the self time of the spans named after it; the round
//! trip (`e2e.*`) and the mirror's `handlers::handle` (`mirror.*`) run
//! every layer at once and count for none.

use crate::gen::{Class, Cycle, Inputs, Read, Request, Route, Workload};
use crate::net::{Conn, Reply, Server, ServerKind};
use crate::oracle::{decode_upload, read_key, Key, Observed, What};
use crate::stats::median;
use crate::trace::Tracer;
use gde_core::{analyze_mapping, universal_solution, MappingId, MappingService, Semantics};
use gde_core::{ServeOptions, ShardSpec};
use gde_datagraph::{Alphabet, GraphSnapshot, ShardPlan, ShardedSnapshot};
use gde_dataquery::{canonicalize, CompiledQuery, PlanSkeleton, QueryTemplate};
use gde_server::json::{self, Json};
use gde_server::protocol::{encode_answer, parse_query, ApiRequest};
use gde_server::{handlers, ServerConfig, ServerState};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Options {
    pub seconds: f64,
    pub threads: usize,
    pub server: ServerKind,
    pub out_dir: Option<PathBuf>,
}

/// Requests attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// One connection's view of a run: what it sent, what failed, what it
/// saw.
pub struct Session {
    conn: Option<Conn>,
    pub tally: Tally,
    pub observed: Vec<Observed>,
}

impl Session {
    fn connect(server: &Server) -> Session {
        let mut s = Session {
            conn: None,
            tally: Tally::default(),
            observed: Vec::new(),
        };
        match Conn::connect(server.addr()) {
            Ok(c) => s.conn = Some(c),
            Err(e) => {
                s.tally.attempted += 1;
                s.tally.fail(format!("connect: {e}"));
            }
        }
        s
    }

    /// Send one request; count it, and count it failed on a transport
    /// error or a non-2xx status. A transport error ends the connection.
    fn send(&mut self, req: &Request) -> Option<Reply> {
        self.tally.attempted += 1;
        let Some(conn) = self.conn.as_mut() else {
            self.tally
                .fail(format!("{} {}: no connection", req.method, req.path));
            return None;
        };
        match conn.request(req.method, &req.path, &req.body) {
            Ok(r) if r.ok() => Some(r),
            Ok(r) => {
                self.tally.fail(format!(
                    "{} {}: status {}: {}",
                    req.method,
                    req.path,
                    r.status,
                    String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
                ));
                None
            }
            Err(e) => {
                self.conn = None;
                self.tally.fail(format!("{} {}: {e}", req.method, req.path));
                None
            }
        }
    }

    /// Send a request whose answer the oracle checks; returns the
    /// latency in milliseconds and the reply.
    fn answer(&mut self, req: &Request, key: Key) -> Option<(f64, Reply)> {
        let t = Instant::now();
        let reply = self.send(req)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.observed.push(Observed::new(key, &reply.body));
        Some((ms, reply))
    }

    fn alive(&self) -> bool {
        self.conn.is_some()
    }
}

/// Every request body, encoded before any timing starts.
pub struct Wire {
    /// `reads[item][boolean as usize]`.
    reads: Vec<[Request; 2]>,
    batch: Request,
    deltas: Vec<Request>,
    templates: Vec<Request>,
    stats: Request,
    tenant_stats: Request,
}

impl Wire {
    pub fn new(inputs: &Inputs) -> Wire {
        Wire {
            reads: (0..inputs.items.len())
                .map(|item| {
                    [false, true].map(|boolean| inputs.read_request(Read { item, boolean }))
                })
                .collect(),
            batch: inputs.batch_request(),
            deltas: (0..inputs.deltas.len())
                .map(|i| inputs.delta_request(i))
                .collect(),
            templates: inputs
                .templates
                .iter()
                .map(|t| inputs.template_request(t))
                .collect(),
            stats: inputs.stats_request(),
            tenant_stats: inputs.tenant_stats_request(),
        }
    }

    fn read(&self, r: Read) -> &Request {
        &self.reads[r.item][r.boolean as usize]
    }
}

/// Start a server and set the mapping up: tenant, upload, first answer,
/// templates. Returns the set-up time in seconds (upload start to first
/// certain answer), or `None` when the set-up failed (the failures are
/// counted in the session).
fn set_up(
    inputs: &Inputs,
    wire: &Wire,
    opts: &Options,
    tally: &mut Tally,
) -> Option<(Server, Session, f64)> {
    let server = match Server::start(&opts.server, opts.threads) {
        Ok(s) => s,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("server start: {e}"));
            return None;
        }
    };
    let mut s = Session::connect(&server);
    match mapping_set_up(inputs, wire, &mut s) {
        Some(setup) => Some((server, s, setup)),
        None => {
            tally.merge(std::mem::take(&mut s.tally));
            None
        }
    }
}

fn mapping_set_up(inputs: &Inputs, wire: &Wire, s: &mut Session) -> Option<f64> {
    s.send(&inputs.tenant)?;
    let t = Instant::now();
    s.send(&inputs.upload)?;
    let first = Read {
        item: inputs.first,
        boolean: false,
    };
    s.answer(wire.read(first), read_key(first, 0))?;
    let setup = t.elapsed().as_secs_f64();
    for (def, req) in inputs.templates.iter().zip(&wire.templates) {
        let reply = s.send(req)?;
        let id = json::parse(&reply.body)
            .ok()
            .and_then(|j| j.get("template").and_then(Json::as_str).map(str::to_string));
        if id.as_deref() != Some(def.id.as_str()) {
            s.tally.fail(format!(
                "template {:?} registered as {id:?}, expected {}",
                def.query.text, def.id
            ));
            return None;
        }
    }
    Some(setup)
}

/// End-to-end samples of an untraced run.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub delta_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub reads: u64,
    pub serve_s: f64,
    pub cycles: usize,
}

pub struct Outcome {
    pub tally: Tally,
    pub observed: Vec<Observed>,
}

/// Closed-loop reads, one thread per session, until `end` or, for a
/// cycle of so many reads, until each session has sent them. Session `c`
/// walks the stream from its own position `pos[c]`, which carries over
/// to the next cycle.
fn serve_reads(
    inputs: &Inputs,
    wire: &Wire,
    sessions: &mut [Session],
    pos: &mut [usize],
    end: Instant,
    e2e: &mut E2e,
) {
    let started = Instant::now();
    let limit = match inputs.cycle {
        Cycle::Reads(n) => n,
        Cycle::Time(_) => usize::MAX,
    };
    let latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(pos.iter_mut())
            .map(|(sess, p)| {
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut sent = 0;
                    while sess.alive() && sent < limit && Instant::now() < end {
                        sent += 1;
                        let r = inputs.reads[*p % inputs.reads.len()];
                        *p += 1;
                        if let Some((ms, _)) = sess.answer(wire.read(r), read_key(r, 0)) {
                            lat.push(ms);
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread does not panic"))
            .collect()
    });
    e2e.serve_s += started.elapsed().as_secs_f64();
    for lat in latencies {
        e2e.reads += lat.len() as u64;
        e2e.query_ms.extend(lat);
    }
}

/// Write `i` of the script, then the fixed batch read: one delta sample
/// and one fresh-read sample.
fn write_then_read(wire: &Wire, s: &mut Session, i: usize, e2e: &mut E2e) -> bool {
    let t = Instant::now();
    if s.send(&wire.deltas[i]).is_none() {
        return false;
    }
    e2e.delta_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let key = Key {
        gen: i + 1,
        what: What::Batch,
    };
    match s.answer(&wire.batch, key) {
        Some((ms, _)) => {
            e2e.fresh_ms.push(ms);
            true
        }
        None => false,
    }
}

pub fn untraced(inputs: &Inputs, opts: &Options) -> (E2e, Outcome) {
    let wire = Wire::new(inputs);
    let mut e2e = E2e::default();
    let mut tally = Tally::default();
    let mut observed = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let clients = inputs.clients;
    let mut pos: Vec<usize> = (0..clients)
        .map(|c| c * inputs.reads.len() / clients)
        .collect();
    // a cycle starts only with at least half the last cycle's length left,
    // so no cycle is cut down to a set-up without traffic
    let mut last = Duration::ZERO;
    while e2e.cycles == 0 || Instant::now() + last / 2 < deadline {
        let started = Instant::now();
        let cycle_end = match inputs.cycle {
            Cycle::Time(d) => (started + d).min(deadline),
            // a cycle of so many reads runs them all
            Cycle::Reads(_) => started + Duration::from_secs(3600),
        };
        let Some((server, s, setup)) = set_up(inputs, &wire, opts, &mut tally) else {
            // a set-up that fails once fails every time: stop here
            break;
        };
        e2e.cycles += 1;
        e2e.setup_s.push(setup);
        // the set-up's connection is the first client's
        let mut sessions = vec![s];
        match inputs.workload {
            Workload::HotWire | Workload::ColdLarge => {
                sessions.extend((1..clients).map(|_| Session::connect(&server)));
                serve_reads(inputs, &wire, &mut sessions, &mut pos, cycle_end, &mut e2e);
                for i in 0..inputs.max_writes {
                    if !write_then_read(&wire, &mut sessions[0], i, &mut e2e) {
                        break;
                    }
                }
            }
            Workload::ChurnRw => {
                let s = &mut sessions[0];
                let started = Instant::now();
                let mut i = 0;
                while i < inputs.max_writes && Instant::now() < cycle_end {
                    if !write_then_read(&wire, s, i, &mut e2e) {
                        break;
                    }
                    e2e.reads += 1;
                    i += 1;
                    for _ in 0..inputs.reads_per_write {
                        let r = inputs.reads[pos[0] % inputs.reads.len()];
                        pos[0] += 1;
                        if let Some((ms, _)) = s.answer(wire.read(r), read_key(r, i)) {
                            e2e.query_ms.push(ms);
                            e2e.reads += 1;
                        }
                    }
                }
                e2e.serve_s += started.elapsed().as_secs_f64();
            }
        }
        if let Some(kib) = server.peak_rss_kib() {
            e2e.rss_mb.push(kib as f64 / 1024.0);
        }
        server.stop();
        for sess in sessions {
            tally.merge(sess.tally);
            observed.extend(sess.observed);
        }
        last = started.elapsed();
    }
    (e2e, Outcome { tally, observed })
}

// ---------------------------------------------------------------------
// traced runs

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(Read, usize),
    Write(usize),
}

/// The fixed script of a traced run.
fn script(inputs: &Inputs) -> Vec<Op> {
    let mut ops = Vec::new();
    match inputs.workload {
        Workload::HotWire | Workload::ColdLarge => {
            let n = if inputs.workload == Workload::HotWire {
                400
            } else {
                12
            };
            ops.extend(inputs.reads.iter().take(n).map(|r| Op::Read(*r, 0)));
            ops.extend((0..inputs.max_writes).map(Op::Write));
        }
        Workload::ChurnRw => {
            let mut p = 0;
            for i in 0..12 {
                ops.push(Op::Write(i));
                for _ in 0..inputs.reads_per_write {
                    ops.push(Op::Read(inputs.reads[p % inputs.reads.len()], i + 1));
                    p += 1;
                }
            }
        }
    }
    ops
}

/// What one pass of the script measured end to end.
struct Pass {
    setup_s: f64,
    read_ms: Vec<f64>,
}

/// The in-process side of a traced pass.
struct Layers {
    tr: Tracer,
    /// Mirror of the server's state, for `handlers::handle`.
    mirror: ServerState,
    /// A service prepared by the preparation replay, for the per-call
    /// decomposition.
    svc: MappingService,
    id: MappingId,
    alphabet: Alphabet,
    templates: HashMap<u128, Arc<QueryTemplate>>,
    rtt_minus_handle: Vec<f64>,
    response_bytes: Vec<f64>,
    answer_pairs: u64,
    counts: BTreeMap<&'static str, f64>,
}

fn mirror_handle(mirror: &ServerState, req: &Request) -> u16 {
    let body = if req.body.is_empty() {
        Json::Null
    } else {
        json::parse(&req.body).expect("generated bodies are JSON")
    };
    handlers::handle(mirror, &ApiRequest::new(req.method, &req.path, body)).status
}

/// The preparation replay: the steps a mapping's first answer takes,
/// each timed on its own. Repeated while it is cheap (at least once, at
/// most 15 times within 0.6 s); the last replay's service is returned,
/// prepared, with the counts of the preparation.
fn prepare_replay(
    inputs: &Inputs,
    tr: &mut Tracer,
) -> (
    MappingService,
    MappingId,
    Alphabet,
    BTreeMap<&'static str, f64>,
) {
    let started = Instant::now();
    let sweep: Vec<CompiledQuery> = inputs.sweep.iter().map(|(_, q)| q.compile()).collect();
    let refs: Vec<&CompiledQuery> = sweep.iter().collect();
    let mut reps = 0;
    loop {
        tr.next_request();
        let root = tr.open("replay");
        let (gsm, source, alphabet) = tr.time("wire.upload_decode", || {
            let body = json::parse(&inputs.upload.body).expect("generated upload is JSON");
            decode_upload(&body).expect("generated upload decodes")
        });
        let pairs: usize = tr.time("prep.source_answers", || {
            gsm.rules()
                .iter()
                .map(|r| gsm.source_answers(r, &source).len())
                .sum()
        });
        let dom = tr.time("prep.dom", || gsm.dom(&source).len());
        let sol = tr
            .time("prep.solution", || universal_solution(&gsm, &source))
            .expect("scenario has a solution");
        let snap = tr.time("prep.freeze", || Arc::new(GraphSnapshot::new(&sol.graph)));
        tr.time("prep.shard", || {
            (inputs.shards > 1).then(|| {
                ShardedSnapshot::new(snap.clone(), ShardPlan::by_cost(&snap, inputs.shards))
            })
        });
        tr.time("prep.analyze", || analyze_mapping(&gsm, &refs, Some(&snap)));
        let mut counts = BTreeMap::new();
        counts.insert("prep.source_nodes", source.node_count() as f64);
        counts.insert("prep.solution_nodes", sol.graph.node_count() as f64);
        counts.insert("prep.solution_edges", sol.graph.edge_count() as f64);
        counts.insert("prep.source_answer_pairs", pairs as f64);
        counts.insert("prep.dom_nodes", dom as f64);
        drop((sol, snap));
        let svc = MappingService::with_cache_budget(inputs.cache_budget as usize);
        let s = tr.open("prep.prepare");
        let id = svc.register(gsm, source);
        svc.set_shard_count(id, ShardSpec::Fixed(inputs.shards))
            .expect("mapping is registered");
        svc.prepare(id, Semantics::nulls())
            .expect("scenario prepares");
        tr.close(s);
        tr.close(root);
        counts.insert("prep.shard_count", svc.shard_count(id).unwrap_or(0) as f64);
        reps += 1;
        if reps >= 15 || started.elapsed() >= Duration::from_millis(600) {
            return (svc, id, alphabet, counts);
        }
    }
}

/// Evaluate every scenario query on the prepared solution's frozen
/// snapshot, once each (the conjunctive query has no wire syntax, so this
/// is where it is measured).
fn algebra_sweep(inputs: &Inputs, layers: &mut Layers) {
    let prep = layers
        .svc
        .solution(layers.id, Semantics::nulls())
        .expect("prepared");
    layers.tr.next_request();
    for (_, q) in &inputs.sweep {
        let c = q.compile();
        let name = algebra_span(Class::of(q));
        let n = layers.tr.time(name, || c.eval_pairs(prep.snapshot()).len());
        layers.answer_pairs += n as u64;
    }
}

fn algebra_span(c: Class) -> &'static str {
    match c {
        Class::Rpq => "algebra.rpq",
        Class::Ree => "algebra.ree",
        Class::Rem => "algebra.rem",
        Class::Crpq => "algebra.crpq",
    }
}

/// The in-process decomposition of one read: every layer's public entry
/// point on the same request body. Returns the encoded answer bytes.
fn decompose_read(inputs: &Inputs, layers: &mut Layers, req: &Request, read: Read) -> Vec<u8> {
    let body = layers
        .tr
        .time("wire.json_parse", || json::parse(&req.body).expect("JSON"));
    let item = &inputs.items[read.item];
    let compiled = match &item.route {
        Route::Plain => {
            let alphabet = &mut layers.alphabet;
            let q = layers.tr.time("request.parse", || {
                parse_query(&body, alphabet).expect("generated query parses")
            });
            let (skeleton, bindings) = layers.tr.time("request.canon", || canonicalize(&q));
            let compiled = layers.tr.time("request.compile", || q.compile());
            // the engine routes an ad-hoc query onto its skeleton's template
            let template = template_for(layers, skeleton);
            layers.tr.time("request.bind", || {
                template
                    .bind(bindings.labels())
                    .expect("bindings fit their own skeleton")
            });
            compiled
        }
        Route::Template { template, bindings } => {
            let labels: Vec<_> = bindings.iter().map(|n| layers.alphabet.intern(n)).collect();
            let registered = &inputs.templates[*template].query.body(Vec::new());
            let q = parse_query(registered, &mut layers.alphabet).expect("template parses");
            let template = template_for(layers, canonicalize(&q).0);
            layers.tr.time("request.bind", || {
                template.bind(&labels).expect("bindings fit the template")
            })
        }
    };
    let sem = if read.boolean {
        Semantics::nulls_boolean()
    } else {
        Semantics::nulls()
    };
    let opts = ServeOptions::new();
    let answer = layers.tr.time("serve.answer", || {
        layers.svc.answer_with(layers.id, &compiled, sem, &opts)
    });
    let Ok(answer) = answer else {
        return Vec::new();
    };
    let j = layers
        .tr
        .time("wire.answer_encode", || encode_answer(&answer));
    let bytes = layers
        .tr
        .time("wire.json_encode", || j.encode().into_bytes());
    if !read.boolean {
        let prep = layers
            .svc
            .solution(layers.id, Semantics::nulls())
            .expect("prepared");
        let n = layers.tr.time(algebra_span(item.class), || {
            compiled.eval_pairs(prep.snapshot()).len()
        });
        layers.answer_pairs += n as u64;
    }
    bytes
}

/// The template of a skeleton, built (under its own span) on first sight.
fn template_for(layers: &mut Layers, skeleton: PlanSkeleton) -> Arc<QueryTemplate> {
    let hash = skeleton.hash();
    if let Some(t) = layers.templates.get(&hash) {
        return t.clone();
    }
    let t = layers.tr.time("request.template_new", || {
        Arc::new(QueryTemplate::new(skeleton))
    });
    layers.templates.insert(hash, t.clone());
    t
}

fn stats_json(s: &mut Session, req: &Request) -> Json {
    s.send(req)
        .and_then(|r| json::parse(&r.body).ok())
        .unwrap_or(Json::Null)
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for k in path {
        match cur.get(k) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    match cur {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

/// Run the script once. With `layers`, every request is also replayed
/// in-process under spans.
fn pass(
    inputs: &Inputs,
    wire: &Wire,
    opts: &Options,
    ops: &[Op],
    mut layers: Option<&mut Layers>,
    outcome: &mut Outcome,
) -> Option<Pass> {
    let mut tally = Tally::default();
    let set = set_up(inputs, wire, opts, &mut tally);
    let Some((server, mut s, setup_s)) = set else {
        outcome.tally.merge(tally);
        return None;
    };
    let stats0 = layers.as_ref().map(|_| {
        (
            stats_json(&mut s, &wire.stats),
            stats_json(&mut s, &wire.tenant_stats),
        )
    });
    if let Some(l) = layers.as_deref_mut() {
        // bring the mirror to the server's state; untimed
        for req in [&inputs.tenant, &inputs.upload]
            .into_iter()
            .chain(std::iter::once(wire.read(Read {
                item: inputs.first,
                boolean: false,
            })))
            .chain(&wire.templates)
        {
            let status = mirror_handle(&l.mirror, req);
            if !(200..300).contains(&status) {
                s.tally.fail(format!(
                    "mirror {} {}: status {status}",
                    req.method, req.path
                ));
            }
        }
    }
    let mut read_ms = Vec::new();
    for op in ops {
        if !s.alive() {
            break;
        }
        match *op {
            Op::Read(r, gen) => {
                let req = wire.read(r);
                match layers.as_deref_mut() {
                    None => {
                        if let Some((ms, _)) = s.answer(req, read_key(r, gen)) {
                            read_ms.push(ms);
                        }
                    }
                    Some(l) => {
                        l.tr.next_request();
                        let root = l.tr.open("read");
                        let rtt = l.tr.open("e2e.rtt");
                        let reply = s.answer(req, read_key(r, gen));
                        let rtt_ns = l.tr.close(rtt);
                        let h = l.tr.open("mirror.handle");
                        mirror_handle(&l.mirror, req);
                        let handle_ns = l.tr.close(h);
                        let local = decompose_read(inputs, l, req, r);
                        l.tr.close(root);
                        if let Some((ms, reply)) = reply {
                            read_ms.push(ms);
                            l.rtt_minus_handle.push(rtt_ns as f64 - handle_ns as f64);
                            l.response_bytes.push(reply.body.len() as f64);
                            if local != reply.body {
                                s.tally.fail(format!(
                                    "in-process answer differs from the wire answer for {:?}",
                                    inputs.items[r.item].query.text
                                ));
                            }
                        }
                    }
                }
            }
            Op::Write(i) => {
                if let Some(l) = layers.as_deref_mut() {
                    l.tr.next_request();
                    let root = l.tr.open("write");
                    let rtt = l.tr.open("e2e.rtt.write");
                    let ok = s.send(&wire.deltas[i]).is_some();
                    l.tr.close(rtt);
                    l.tr.time("mirror.handle", || {
                        mirror_handle(&l.mirror, &wire.deltas[i])
                    });
                    let (svc, id) = (&l.svc, l.id);
                    l.tr.time("serve.delta", || svc.apply_delta(id, &inputs.deltas[i]))
                        .expect("script deltas apply");
                    l.tr.close(root);
                    if !ok {
                        continue;
                    }
                    let root = l.tr.open("fresh");
                    let rtt = l.tr.open("e2e.rtt.fresh");
                    s.answer(
                        &wire.batch,
                        Key {
                            gen: i + 1,
                            what: What::Batch,
                        },
                    );
                    l.tr.close(rtt);
                    l.tr.time("mirror.handle", || mirror_handle(&l.mirror, &wire.batch));
                    l.tr.close(root);
                } else if s.send(&wire.deltas[i]).is_some() {
                    s.answer(
                        &wire.batch,
                        Key {
                            gen: i + 1,
                            what: What::Batch,
                        },
                    );
                }
            }
        }
    }
    if let (Some(l), Some((m0, t0))) = (layers, stats0) {
        let m1 = stats_json(&mut s, &wire.stats);
        let t1 = stats_json(&mut s, &wire.tenant_stats);
        let d = |k: &str| num(&m1, &[k]) - num(&m0, &[k]);
        let ds = |k: &str| num(&t1, &["service", k]) - num(&t0, &["service", k]);
        let (hits, misses) = (d("cache_hits"), d("cache_misses"));
        let c = &mut l.counts;
        c.insert("serve.eval_ms", d("eval_ns") / 1e6);
        c.insert("serve.memo_ms", d("memo_build_ns") / 1e6);
        c.insert("serve.merge_ms", d("merge_ns") / 1e6);
        c.insert("serve.cache_hits", hits);
        c.insert("serve.cache_misses", misses);
        c.insert(
            "serve.cache_hit_rate",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        c.insert("serve.cache_bytes", num(&m1, &["cache_bytes"]));
        c.insert("serve.degraded", d("degraded"));
        c.insert("serve.tuples", d("tuples"));
        c.insert("serve.evictions", ds("evictions"));
        c.insert("serve.patched_deltas", ds("patched_deltas"));
        c.insert("serve.invalidating_deltas", ds("invalidating_deltas"));
        c.insert("request.template_hits", d("template_hits"));
    }
    server.stop();
    outcome.tally.merge(s.tally);
    outcome.observed.extend(s.observed);
    outcome.tally.merge(tally);
    Some(Pass { setup_s, read_ms })
}

pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Alternate untraced and traced passes of the script until the run's
/// time is up (at least one of each). Timings are medians over every
/// traced pass; counts come from the first traced pass, since every pass
/// does the same work.
pub fn traced(inputs: &Inputs, opts: &Options) -> (Metrics, Outcome, Vec<(&'static str, Json)>) {
    let wire = Wire::new(inputs);
    let ops = script(inputs);
    let mut outcome = Outcome {
        tally: Tally::default(),
        observed: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut tr = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut rtt_minus_handle, mut response_bytes) = (Vec::new(), Vec::new());
    let mut first: Option<(BTreeMap<&'static str, f64>, u64)> = None;
    let mut first_spans = 0;
    let mut passes = 0usize;
    let mut last_pair = Duration::ZERO;
    // start another pair only if it can end before the deadline
    while passes == 0 || Instant::now() + last_pair < deadline {
        let pair_started = Instant::now();
        passes += 1;
        plain.extend(pass(inputs, &wire, opts, &ops, None, &mut outcome));
        let (svc, id, alphabet, counts) = prepare_replay(inputs, &mut tr);
        let mut layers = Layers {
            tr,
            mirror: ServerState::new(ServerConfig {
                workers: opts.threads,
                ..ServerConfig::default()
            }),
            svc,
            id,
            alphabet,
            templates: HashMap::new(),
            rtt_minus_handle: Vec::new(),
            response_bytes: Vec::new(),
            answer_pairs: 0,
            counts,
        };
        // the decomposition service sees the same first answer as the server
        let body = inputs.items[inputs.first].query.body(Vec::new());
        let q = parse_query(&body, &mut layers.alphabet)
            .expect("first query parses")
            .compile();
        let _ = layers.svc.answer(layers.id, &q, Semantics::nulls());
        traced.extend(pass(
            inputs,
            &wire,
            opts,
            &ops,
            Some(&mut layers),
            &mut outcome,
        ));
        // the sweep runs after the pass, on the final generation
        algebra_sweep(inputs, &mut layers);
        tr = layers.tr;
        rtt_minus_handle.extend(layers.rtt_minus_handle);
        response_bytes.extend(layers.response_bytes);
        if first.is_none() {
            first = Some((layers.counts, layers.answer_pairs));
            first_spans = tr.spans().len();
        }
        last_pair = pair_started.elapsed();
    }
    let (counts, answer_pairs) = first.expect("at least one traced pass");

    let mut m: Metrics = BTreeMap::new();
    let us = |v: Vec<f64>| median(&v).unwrap_or(0.0) / 1e3;
    let ms = |v: Vec<f64>| median(&v).unwrap_or(0.0) / 1e6;
    // wire
    m.insert("wire.rtt_us".into(), (us(tr.durations("e2e.rtt")), "us"));
    m.insert("wire.handle_us".into(), (us(handle_in_reads(&tr)), "us"));
    m.insert(
        "wire.transport_us".into(),
        (median(&rtt_minus_handle).unwrap_or(0.0) / 1e3, "us"),
    );
    for (name, span) in [
        ("wire.json_parse_us", "wire.json_parse"),
        ("wire.json_encode_us", "wire.json_encode"),
        ("wire.answer_encode_us", "wire.answer_encode"),
        ("request.parse_us", "request.parse"),
        ("request.canon_us", "request.canon"),
        ("request.compile_us", "request.compile"),
        ("request.bind_us", "request.bind"),
        ("serve.answer_us", "serve.answer"),
    ] {
        m.insert(name.into(), (us(tr.durations(span)), "us"));
    }
    m.insert(
        "wire.response_bytes".into(),
        (median(&response_bytes).unwrap_or(0.0), "bytes"),
    );
    m.insert(
        "wire.upload_decode_ms".into(),
        (ms(tr.durations("wire.upload_decode")), "ms"),
    );
    m.insert(
        "wire.upload_bytes".into(),
        (inputs.upload.body.len() as f64, "bytes"),
    );
    // request: template routing, over the reads of one pass
    let base = ops
        .iter()
        .map(|op| match op {
            Op::Read(..) => 1.0,
            Op::Write(_) => inputs.batch.len() as f64,
        })
        .sum::<f64>();
    let hits = counts.get("request.template_hits").copied().unwrap_or(0.0);
    m.insert("request.template_hits".into(), (hits, "count"));
    m.insert(
        "request.template_hit_rate".into(),
        (hits / base.max(1.0), "ratio"),
    );
    // preparation
    for (name, span) in [
        ("prep.source_answers_ms", "prep.source_answers"),
        ("prep.dom_ms", "prep.dom"),
        ("prep.solution_ms", "prep.solution"),
        ("prep.freeze_ms", "prep.freeze"),
        ("prep.shard_ms", "prep.shard"),
        ("prep.analyze_ms", "prep.analyze"),
        ("prep.prepare_ms", "prep.prepare"),
    ] {
        m.insert(name.into(), (ms(tr.durations(span)), "ms"));
    }
    // serving
    m.insert(
        "serve.delta_ms".into(),
        (ms(tr.durations("serve.delta")), "ms"),
    );
    for (k, v) in &counts {
        if *k == "request.template_hits" {
            continue;
        }
        let unit = if k.ends_with("_ms") {
            "ms"
        } else if k.ends_with("_rate") {
            "ratio"
        } else if k.ends_with("_bytes") {
            "bytes"
        } else {
            "count"
        };
        m.insert((*k).into(), (*v, unit));
    }
    // algebra: the reads and the sweep
    for class in ["rpq", "ree", "rem", "crpq"] {
        let v = tr.durations(&format!("algebra.{class}"));
        m.insert(format!("algebra.{class}_eval_ms"), (ms(v), "ms"));
    }
    m.insert(
        "algebra.answer_pairs".into(),
        (answer_pairs as f64, "count"),
    );
    // self time per layer, per traced pass. Only spans named after the
    // five layers count: the round trips (`e2e.*`) and the mirror's
    // `handlers::handle` (`mirror.*`) run every layer at once. The
    // engine's own evaluation runs inside `serve.answer`, so
    // `serve.self_ms` includes it; `algebra.self_ms` is the separate
    // re-evaluation of the reads (and the sweep) on the frozen solution.
    let mut own: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, ns) in tr.spans().iter().zip(tr.self_ns()) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *own.entry(layer).or_default() += ns as f64 / 1e6 / passes as f64;
    }
    for layer in ["wire", "request", "prep", "serve", "algebra"] {
        m.insert(
            format!("{layer}.self_ms"),
            (own.get(layer).copied().unwrap_or(0.0), "ms"),
        );
    }
    // tracing overhead: the same script, traced minus untraced
    let pct = |t: f64, p: f64| (t - p) / p.max(f64::MIN_POSITIVE) * 100.0;
    let setup =
        |v: &[Pass]| median(&v.iter().map(|p| p.setup_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let read = |v: &[Pass]| {
        median(&v.iter().flat_map(|p| p.read_ms.clone()).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    m.insert(
        "trace.overhead_setup_pct".into(),
        (pct(setup(&traced), setup(&plain)), "%"),
    );
    m.insert(
        "trace.overhead_query_pct".into(),
        (pct(read(&traced), read(&plain)), "%"),
    );
    m.insert("trace.untraced_query_p50_ms".into(), (read(&plain), "ms"));
    m.insert("trace.untraced_setup_s".into(), (setup(&plain), "s"));
    // the first pass's spans; later passes repeat its requests
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            inputs.workload.name(),
            inputs.seed
        ));
        if let Err(e) = tr.write_jsonl(&path, first_spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    let provenance = vec![
        ("trace_passes", Json::num(passes as f64)),
        ("trace_spans", Json::num(tr.spans().len() as f64)),
        (
            "prep_replays",
            Json::num(tr.durations("replay").len() as f64),
        ),
        ("template_hit_base", Json::num(base)),
        (
            "layer_self_time",
            Json::str(
                "spans named wire/request/prep/serve/algebra only; serve.self_ms \
                 includes the engine's evaluation inside answer_with, algebra.self_ms \
                 is a separate re-evaluation on the frozen solution",
            ),
        ),
    ];
    (m, outcome, provenance)
}

/// `mirror.handle` spans of reads (not of writes or fresh reads).
fn handle_in_reads(tr: &Tracer) -> Vec<f64> {
    let spans = tr.spans();
    spans
        .iter()
        .filter(|s| s.name == "mirror.handle" && s.parent.is_some_and(|p| spans[p].name == "read"))
        .map(|s| s.ns() as f64)
        .collect()
}
