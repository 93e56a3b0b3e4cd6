//! `serve`: up to `nproc` tenant clients in a closed loop against one
//! `btr_server::ScanService` with one worker.
//!
//! The service reads through an `ObjectStoreSource` from a btr-s3sim
//! `ObjectStore` holding a TPC-H-like lineitem relation with a clustered
//! `l_orderkey`, under a light fault plan whose every fault converges within
//! the retry policy. Each client submits its next query once the last batch
//! of the previous one has drained. After an untimed warm-up, rounds of one
//! client alone alternate with rounds of all `nproc` clients at once; in a
//! round each client runs one cycle of a fixed class order of 20 queries
//! ([`PATTERN`]). The key ranges and cut-offs come from the seed:
//!
//! * 14 key ranges on `l_orderkey`, each ~0.5% of rows; 11 of them fall in
//!   a hot range whose decoded blocks fit in the service cache;
//! * 4 non-clustered filters `l_shipdate < X AND l_discount > y` projecting
//!   the price: no zone pruning, leaf conjuncts over every block;
//! * 2 full projections of 3 columns, one of them a string column.
//!
//! Every query's row count and value digest are compared with a naive
//! evaluation over the in-memory relation, computed at set-up.

use crate::data::{self, Rng};
use crate::metrics::Report;
use crate::stats::{self, median, timed_setup};
use crate::trace::Tracer;
use btr_expr::{col, lit};
use btr_s3sim::{FaultPlan, GetStats, ObjectStore, RetryPolicy};
use btr_scan::layout::RelationLayout;
use btr_scan::{BlockSource, ObjectStoreSource};
use btr_server::{ScanClient, ScanService, ScanSpec, ServiceOptions, ServiceReport};
use btrblocks::{ColumnData, Config, Relation, Sidecar};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the served relation.
pub const SERVE_ROWS: usize = 1_000_000;
/// Rows per block (and per zone-map entry).
const BLOCK_ROWS: usize = 16_384;
/// Decoded-block cache budget; the decoded relation is about 5x larger.
const CACHE_BYTES: usize = 16 << 20;
/// Service worker threads. One, so that the timed path keeps about one core
/// of the host busy: with a worker per core, clients and workers filled
/// every core and the rates followed whatever else the host ran.
const SERVICE_WORKERS: usize = 1;
/// Queries prepared per client, whole cycles of [`PATTERN`]; a long run
/// starts the list again.
const QUERIES_PER_CLIENT: usize = 50 * PATTERN.len();

const KEY: &str = "tpch/l_orderkey";
const PART: &str = "tpch/l_partkey";
const PRICE: &str = "tpch/l_extendedprice";
const DISCOUNT: &str = "tpch/l_discount";
const SHIPDATE: &str = "tpch/l_shipdate";
const SHIPMODE: &str = "tpch/l_shipmode";

const OBJECT: &str = "lineitem.btr";
const RELATION: &str = "lineitem";

/// Query classes, for per-class latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Point,
    Filter,
    Full,
}

/// Row count and value digest a query must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub rows: u64,
    pub digest: u64,
}

#[derive(Debug, Clone)]
pub struct Query {
    pub class: Class,
    pub spec: ScanSpec,
    pub expected: Expected,
}

/// Order-sensitive digest of projected values, one lane per column.
#[derive(Debug, Clone)]
pub struct Digest(Vec<u64>);

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

impl Digest {
    pub fn new(columns: usize) -> Digest {
        Digest(vec![0xCBF2_9CE4_8422_2325; columns])
    }

    /// Folds values `rows` of `data` into lane `lane`.
    fn update(&mut self, lane: usize, data: &ColumnData, rows: impl Iterator<Item = usize>) {
        let h = &mut self.0[lane];
        match data {
            ColumnData::Int(v) => rows.for_each(|i| *h = mix(*h, v[i] as u32 as u64)),
            ColumnData::Double(v) => rows.for_each(|i| *h = mix(*h, v[i].to_bits())),
            ColumnData::Str(a) => rows.for_each(|i| {
                let s = a.get(i);
                *h = mix(*h, s.len() as u64);
                for chunk in s.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    *h = mix(*h, u64::from_le_bytes(word));
                }
            }),
        }
    }

    /// Folds a whole batch column into lane `lane`.
    pub fn update_all(&mut self, lane: usize, data: &ColumnData) {
        self.update(lane, data, 0..data.len());
    }

    pub fn finish(&self) -> u64 {
        self.0.iter().fold(0, |acc, &h| mix(acc, h))
    }
}

fn column<'a>(rel: &'a Relation, name: &str) -> &'a ColumnData {
    &rel.columns
        .iter()
        .find(|c| c.name == name)
        .expect("served relation has the column")
        .data
}

fn ints<'a>(rel: &'a Relation, name: &str) -> &'a [i32] {
    match column(rel, name) {
        ColumnData::Int(v) => v,
        _ => panic!("{name} is an integer column"),
    }
}

fn doubles<'a>(rel: &'a Relation, name: &str) -> &'a [f64] {
    match column(rel, name) {
        ColumnData::Double(v) => v,
        _ => panic!("{name} is a double column"),
    }
}

/// The naive answer: `rows` of `rel`, projected to `projection`.
fn naive(rel: &Relation, projection: &[&str], rows: &[usize]) -> Expected {
    let mut d = Digest::new(projection.len());
    for (lane, name) in projection.iter().enumerate() {
        d.update(lane, column(rel, name), rows.iter().copied());
    }
    Expected {
        rows: rows.len() as u64,
        digest: d.finish(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HotRange,
    ColdRange,
    Filter,
    Full,
}

/// The class order every client repeats: 11 hot ranges, 3 cold ranges,
/// 4 filters and 2 full projections per 20 queries. It is fixed, not drawn
/// from the seed, because the cache's history depends on it: the decoded
/// block cache stops admitting blocks once it is 90% full and never evicts,
/// so whichever query fills it first decides its contents for the rest of
/// the run. Starting with a full projection makes that history the same in
/// every run.
const PATTERN: [Kind; 20] = {
    use Kind::*;
    [
        Full, HotRange, HotRange, Filter, HotRange, ColdRange, HotRange, HotRange, Filter,
        HotRange, Full, HotRange, ColdRange, HotRange, Filter, HotRange, HotRange, ColdRange,
        HotRange, Filter,
    ]
};

/// Builds one client's seeded query list with its expected results.
/// `memo` shares the answers of repeated filter and full queries.
fn queries(
    rel: &Relation,
    seed: u64,
    client: usize,
    memo: &mut HashMap<(Class, i32, u64), Expected>,
) -> Vec<Query> {
    let n = rel.rows();
    let keys = ints(rel, KEY);
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    // The hot range, 5% of the rows from the first fifth on, is the same
    // for every client and every seed, so every run's hot set meets the same
    // cache history (see PATTERN); the seed picks the ranges inside it.
    let range = (n / 200).max(1);
    let hot_rows = (n / 20).max(range + 1);
    let hot_start = n / 5;
    let mut out = Vec::with_capacity(QUERIES_PER_CLIENT);
    for kind in PATTERN.iter().cycle().take(QUERIES_PER_CLIENT) {
        out.push(match kind {
            Kind::HotRange | Kind::ColdRange => {
                let (base, span) = if *kind == Kind::HotRange {
                    (hot_start, hot_rows)
                } else {
                    (0, n)
                };
                let start = base + rng.below((span - range) as u64) as usize;
                let (lo, hi) = (keys[start], keys[start + range - 1]);
                let first = keys.partition_point(|&k| k < lo);
                let end = keys.partition_point(|&k| k <= hi);
                let projection = [KEY, PART, PRICE];
                let rows: Vec<usize> = (first..end).collect();
                Query {
                    class: Class::Point,
                    spec: ScanSpec::project(projection)
                        .with_expr(col(KEY).ge(lit(lo)).and(col(KEY).le(lit(hi)))),
                    expected: naive(rel, &projection, &rows),
                }
            }
            Kind::Filter => {
                let cut = 8_766 + (1 + rng.below(16) as i32) * 2_557 / 17;
                let floor = [0.02, 0.04, 0.06, 0.08][rng.below(4) as usize];
                let expected = *memo
                    .entry((Class::Filter, cut, f64::to_bits(floor)))
                    .or_insert_with(|| {
                        let (dates, discounts) = (ints(rel, SHIPDATE), doubles(rel, DISCOUNT));
                        let rows: Vec<usize> = (0..n)
                            .filter(|&i| dates[i] < cut && discounts[i] > floor)
                            .collect();
                        naive(rel, &[PRICE], &rows)
                    });
                Query {
                    class: Class::Filter,
                    spec: ScanSpec::project([PRICE])
                        .with_expr(col(SHIPDATE).lt(lit(cut)).and(col(DISCOUNT).gt(lit(floor)))),
                    expected,
                }
            }
            Kind::Full => {
                let projection = [KEY, PRICE, SHIPMODE];
                let expected = *memo
                    .entry((Class::Full, 0, 0))
                    .or_insert_with(|| naive(rel, &projection, &(0..n).collect::<Vec<_>>()));
                Query {
                    class: Class::Full,
                    spec: ScanSpec::project(projection),
                    expected,
                }
            }
        });
    }
    out
}

pub struct Setup {
    pub heap: usize,
    pub file_len: usize,
    pub store: Arc<ObjectStore>,
    pub source: Arc<ObjectStoreSource>,
    pub sidecar: Sidecar,
    pub service: ScanService,
    pub queries: Vec<Vec<Query>>,
}

/// Generates, compresses and uploads the relation, starts the service and
/// prepares every client's queries with their expected results.
pub fn setup(rows: usize, seed: u64, clients: usize) -> Setup {
    let rel = data::lineitem(rows, seed);
    let cfg = Config {
        block_size: BLOCK_ROWS,
        ..Config::default()
    };
    let compressed = btrblocks::compress_parallel(&rel, &cfg, crate::nproc())
        .expect("compress a valid relation");
    let bytes = compressed.to_bytes();
    let file_len = bytes.len();
    let layout = RelationLayout::of(&compressed);
    let sidecar = Sidecar::build(&rel, BLOCK_ROWS);
    let store = Arc::new(ObjectStore::new());
    store.put(OBJECT, bytes);
    // Transient failures and flipped bodies; at most two faults per key,
    // well inside five attempts, so every query must succeed.
    store.set_fault_plan(Some(FaultPlan {
        seed,
        transient_rate: 0.02,
        corrupt_rate: 0.01,
        max_faults_per_key: 2,
        ..FaultPlan::default()
    }));
    let retry = RetryPolicy {
        max_attempts: 5,
        base_backoff_seconds: 0.01,
        backoff_multiplier: 2.0,
    };
    let source = Arc::new(ObjectStoreSource::new(store.clone(), OBJECT, layout, retry));
    let service = ScanService::new(ServiceOptions {
        workers: SERVICE_WORKERS,
        cache_bytes: CACHE_BYTES,
        batch_rows: 4_096,
        window: 8,
        queue_limit: 1 << 20,
        byte_budget: 1 << 40,
        quantum_bytes: 64 << 10,
        coalesce_window: 4,
        config: cfg,
    });
    service.register(RELATION, source.clone(), sidecar.clone());
    let mut memo = HashMap::new();
    let queries = (0..clients)
        .map(|c| queries(&rel, seed, c, &mut memo))
        .collect();
    Setup {
        heap: rel.heap_size(),
        file_len,
        store,
        source,
        sidecar,
        service,
        queries,
    }
}

/// One query's latency, and whether it ran traced.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub class: Class,
    pub traced: bool,
    pub seconds: f64,
}

/// What one client saw while its loop ran.
#[derive(Default)]
pub struct ClientOut {
    pub attempted: u64,
    pub failed: u64,
    pub latencies: Vec<Latency>,
    pub result_bytes: u64,
    pub submit_s: Vec<f64>,
    pub first_batch_s: Vec<f64>,
    pub blocks_fetched: u64,
    pub blocks_decoded: u64,
    pub fast_path_blocks: u64,
    pub dedup_hits: u64,
    pub decode_s: f64,
    /// (client, index into its query list) of every query run.
    pub executed: Vec<(usize, usize)>,
}

impl ClientOut {
    fn absorb(&mut self, o: ClientOut) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.latencies.extend(o.latencies);
        self.result_bytes += o.result_bytes;
        self.submit_s.extend(o.submit_s);
        self.first_batch_s.extend(o.first_batch_s);
        self.blocks_fetched += o.blocks_fetched;
        self.blocks_decoded += o.blocks_decoded;
        self.fast_path_blocks += o.fast_path_blocks;
        self.dedup_hits += o.dedup_hits;
        self.decode_s += o.decode_s;
        self.executed.extend(o.executed);
    }

    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Runs one query and checks it; true when rows and digest match.
pub fn run_query(client: &ScanClient, q: &Query, out: &mut ClientOut, t: &mut Tracer) -> bool {
    let start = Instant::now();
    let ok = t.span("serve.query", |t| {
        let submitted = t.span("serve.submit", |_| client.submit(RELATION, &q.spec));
        out.submit_s.push(start.elapsed().as_secs_f64());
        let Ok(mut handle) = submitted else {
            return false;
        };
        let mut digest = Digest::new(q.spec.projection.len());
        let mut rows = 0u64;
        let mut first = true;
        while let Some(batch) = t.span("serve.next", |_| handle.next()) {
            let Ok(batch) = batch else { return false };
            if first {
                out.first_batch_s.push(start.elapsed().as_secs_f64());
                first = false;
            }
            rows += batch.rows() as u64;
            for (lane, (_, data)) in batch.columns.iter().enumerate() {
                out.result_bytes += data.heap_size() as u64;
                digest.update_all(lane, data);
            }
        }
        let c = handle.counters();
        out.blocks_fetched += c.blocks_fetched;
        out.blocks_decoded += c.blocks_decoded;
        out.fast_path_blocks += c.blocks_pushdown_fast_path;
        out.dedup_hits += c.dedup_hits;
        out.decode_s += c.decode_seconds;
        Expected {
            rows,
            digest: digest.finish(),
        } == q.expected
    });
    out.attempted += 1;
    if !ok {
        out.failed += 1;
    }
    out.latencies.push(Latency {
        class: q.class,
        traced: t.enabled(),
        seconds: start.elapsed().as_secs_f64(),
    });
    ok
}

/// Counters that move while the timed rounds run.
struct Snapshot {
    gets: GetStats,
    retries: u64,
    report: ServiceReport,
}

fn snapshot(s: &Setup) -> Snapshot {
    Snapshot {
        gets: s.store.counters(),
        retries: s.source.stats().retries,
        report: s.service.report(),
    }
}

/// Runs one cycle of [`PATTERN`] on each of `clients` closed-loop clients
/// at once, client `c` continuing its own query list from `next[c]`, and
/// returns what they saw, their spans when `traced`, and the round's wall
/// time in seconds.
fn round(
    s: &Setup,
    clients: usize,
    next: &mut [usize],
    traced: bool,
    origin: Instant,
) -> (ClientOut, Tracer, f64) {
    let run_client = |c: usize, from: usize| {
        let client = s.service.client(format!("tenant-{c}"));
        let list = &s.queries[c];
        let mut out = ClientOut::default();
        let mut t = Tracer::new(origin, traced);
        for i in from..from + PATTERN.len() {
            t.set_request(((c as u64) << 32) | i as u64);
            run_query(&client, &list[i % list.len()], &mut out, &mut t);
            out.executed.push((c, i % list.len()));
        }
        (out, t)
    };
    let clock = Instant::now();
    // A lone client runs on this thread, so the solo round starts no thread.
    let results: Vec<(ClientOut, Tracer)> = if clients == 1 {
        vec![run_client(0, next[0])]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let from = next[c];
                    let run_client = &run_client;
                    scope.spawn(move || run_client(c, from))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let seconds = clock.elapsed().as_secs_f64();
    let mut all = ClientOut::default();
    let mut tracer = Tracer::new(origin, traced);
    for (c, (out, t)) in results.into_iter().enumerate() {
        next[c] += PATTERN.len();
        all.absorb(out);
        tracer.absorb(t);
    }
    (all, tracer, seconds)
}

fn class_p50(out: &ClientOut, class: Class) -> f64 {
    let v: Vec<f64> = out
        .latencies
        .iter()
        .filter(|l| l.class == class)
        .map(|l| l.seconds)
        .collect();
    median(&v) * 1e3
}

/// Rounds of one client alone and rounds of all `nproc` clients, with each
/// round's result MB/s and queries/s.
#[derive(Default)]
struct Rounds {
    solo: ClientOut,
    shared: ClientOut,
    solo_mb_s: Vec<f64>,
    shared_mb_s: Vec<f64>,
    shared_ops: Vec<f64>,
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let clients = crate::nproc();
    let (s, setup_s) = timed_setup(3, || setup(SERVE_ROWS, seed, clients));
    eprintln!(
        "perfbench: serve {SERVE_ROWS} rows, {:.1} MB decoded, {:.1} MB stored, {} MiB cache, {clients} clients, {SERVICE_WORKERS} service worker",
        s.heap as f64 / 1e6,
        s.file_len as f64 / 1e6,
        CACHE_BYTES >> 20
    );
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    report.set("compression_ratio", s.heap as f64 / s.file_len as f64);
    let origin = Instant::now();
    let mut next = vec![0usize; clients];
    // Untimed warm-up: one client runs the class pattern once, filling the
    // cold cache, a cost the service pays once and not per query.
    let (warm, _, _) = round(&s, 1, &mut next, false, origin);
    count(&mut report, &warm);
    let from = snapshot(&s);
    // Solo and shared rounds alternate, so both see the same host over the
    // whole run; rates are medians over rounds, so a slow spell of the host
    // moves a few rounds rather than the result. With `trace`, every other
    // pair of rounds runs traced, so traced and untraced queries see the same
    // service state and the difference is the tracing overhead.
    let mut r = Rounds::default();
    let mut tracer = Tracer::new(origin, trace);
    let deadline = Instant::now() + budget;
    let mut i = 0u64;
    while i < 2 || Instant::now() < deadline {
        let solo = i.is_multiple_of(2);
        let n = if solo { 1 } else { clients };
        let traced = trace && (i / 2) % 2 == 1;
        let (o, t, seconds) = round(&s, n, &mut next, traced, origin);
        let mb_s = o.result_bytes as f64 / 1e6 / seconds;
        if solo {
            r.solo_mb_s.push(mb_s);
            r.solo.absorb(o);
        } else {
            r.shared_mb_s.push(mb_s);
            r.shared_ops.push(o.completed() as f64 / seconds);
            r.shared.absorb(o);
        }
        tracer.absorb(t);
        i += 1;
    }
    let to = snapshot(&s);
    count(&mut report, &r.solo);
    count(&mut report, &r.shared);
    let queries = (r.solo.completed() + r.shared.completed()).max(1);
    let served = to.gets.bytes_served - from.gets.bytes_served;
    let seconds =
        |out: &ClientOut| -> Vec<f64> { out.latencies.iter().map(|l| l.seconds).collect() };
    stats::set_latency(&mut report, &seconds(&r.solo), &seconds(&r.shared));
    if trace {
        report.set("serve.loaded_p50_ms", median(&seconds(&r.shared)) * 1e3);
        let mut all = ClientOut::default();
        all.absorb(r.solo);
        all.absorb(r.shared);
        layer_metrics(&s, &all, &tracer, &from, &to, &mut report);
        stats::save_spans("serve", seed, tracer.spans());
        return report;
    }
    report.set("mb_s", median(&r.solo_mb_s));
    report.set("mt_mb_s", median(&r.shared_mb_s));
    report.set("ops_s", median(&r.shared_ops));
    report.set("io_mb_per_op", served as f64 / 1e6 / queries as f64);
    report
}

/// Adds a client's queries to the run's operation counts.
fn count(report: &mut Report, out: &ClientOut) {
    report.attempted += out.attempted;
    report.failed += out.failed;
}

/// Tracing overhead: traced over untraced latency, per class weighted by
/// how often the class ran.
fn trace_overhead(out: &ClientOut) -> f64 {
    let (mut traced, mut untraced) = (0.0, 0.0);
    for class in [Class::Point, Class::Filter, Class::Full] {
        let of = |t: bool| -> Vec<f64> {
            out.latencies
                .iter()
                .filter(|l| l.class == class && l.traced == t)
                .map(|l| l.seconds)
                .collect()
        };
        let (t, u) = (of(true), of(false));
        let weight = (t.len() + u.len()) as f64;
        if !t.is_empty() && !u.is_empty() {
            traced += weight * median(&t);
            untraced += weight * median(&u);
        }
    }
    (traced / untraced.max(f64::MIN_POSITIVE) - 1.0) * 100.0
}

fn layer_metrics(
    s: &Setup,
    out: &ClientOut,
    tracer: &Tracer,
    from: &Snapshot,
    to: &Snapshot,
    report: &mut Report,
) {
    let queries = out.completed().max(1) as f64;
    let traced = out.latencies.iter().filter(|l| l.traced).count() as u64;
    stats::set_span_metrics(report, tracer.spans(), "serve.query", traced);
    report.set("trace.overhead_pct", trace_overhead(out));
    let total = |name: &str| {
        tracer
            .spans()
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.end - sp.start)
            .sum::<u64>()
    };
    report.set(
        "serve.stall_share",
        total("serve.next") as f64 / total("serve.query").max(1) as f64,
    );
    report.set("serve.submit_ms", median(&out.submit_s) * 1e3);
    report.set("serve.first_batch_ms", median(&out.first_batch_s) * 1e3);
    report.set("serve.point_p50_ms", class_p50(out, Class::Point));
    report.set("serve.filter_p50_ms", class_p50(out, Class::Filter));
    report.set("serve.full_p50_ms", class_p50(out, Class::Full));

    report.set(
        "pipeline.blocks_fetched",
        out.blocks_fetched as f64 / queries,
    );
    report.set(
        "pipeline.blocks_decoded",
        out.blocks_decoded as f64 / queries,
    );
    report.set("pipeline.decode_s", out.decode_s / queries);
    report.set("pipeline.dedup_hits", out.dedup_hits as f64 / queries);
    report.set(
        "expr.fast_path_blocks",
        out.fast_path_blocks as f64 / queries,
    );

    let (a, b) = (&from.report, &to.report);
    let hits = b.cache.hits - a.cache.hits;
    let misses = b.cache.misses - a.cache.misses;
    report.set(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set(
        "cache.evictions",
        (b.cache.evictions - a.cache.evictions) as f64 / queries,
    );
    report.set("server.queue_wait_p50_s", b.queue_wait_p50);
    report.set("server.queue_wait_p95_s", b.queue_wait_p95);
    report.set(
        "server.spans_issued",
        (b.spans_issued - a.spans_issued) as f64 / queries,
    );
    report.set(
        "server.coalesced_blocks",
        (b.coalesced_blocks - a.coalesced_blocks) as f64 / queries,
    );
    report.set(
        "server.staged_hits",
        (b.staged_hits - a.staged_hits) as f64 / queries,
    );
    report.set(
        "server.admission_rejections",
        (b.admission_rejections - a.admission_rejections) as f64,
    );
    report.set(
        "source.fetch_retries",
        (to.retries - from.retries) as f64 / queries,
    );
    report.set(
        "store.ranged_gets",
        (to.gets.ranged_get_requests - from.gets.ranged_get_requests) as f64 / queries,
    );
    report.set(
        "store.bytes_served",
        (to.gets.bytes_served - from.gets.bytes_served) as f64 / 1e6 / queries,
    );

    // Planning, replayed for the executed queries after the phase: zone
    // pruning, and rows matched per row examined by filtered queries.
    let (mut pruned, mut total_blocks, mut examined) = (0usize, 0usize, 0u64);
    let mut filtered_matched = 0u64;
    for &(client, index) in &out.executed {
        let q = &s.queries[client][index];
        let source: &dyn BlockSource = s.source.as_ref();
        if let Ok(plan) = btr_scan::plan_scan(source, &s.sidecar, &q.spec) {
            pruned += plan.blocks_pruned;
            total_blocks += plan.blocks_total;
            if q.class != Class::Full {
                examined += plan
                    .row_groups
                    .iter()
                    .map(|g| u64::from(g.rows))
                    .sum::<u64>();
                filtered_matched += q.expected.rows;
            }
        }
    }
    report.set(
        "plan.prune_ratio",
        pruned as f64 / total_blocks.max(1) as f64,
    );
    report.set(
        "expr.match_ratio",
        filtered_matched as f64 / examined.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Setup {
        setup(40_000, 5, 2)
    }

    #[test]
    fn the_mix_has_the_stated_proportions() {
        let s = tiny();
        let q = &s.queries[0][..20];
        let count = |c: Class| q.iter().filter(|x| x.class == c).count();
        assert_eq!(
            (
                count(Class::Point),
                count(Class::Filter),
                count(Class::Full)
            ),
            (14, 4, 2)
        );
        assert!(s.queries[0]
            .iter()
            .all(|x| x.expected.rows > 0 || x.class == Class::Filter));
    }

    #[test]
    fn every_query_returns_its_expected_result() {
        let s = tiny();
        let client = s.service.client("t");
        let mut out = ClientOut::default();
        let mut t = Tracer::new(Instant::now(), true);
        for q in s.queries[1].iter().take(40) {
            assert!(
                run_query(&client, q, &mut out, &mut t),
                "{:?} failed",
                q.class
            );
        }
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn a_round_runs_one_cycle_of_the_mix_per_client() {
        let s = tiny();
        let mut next = vec![0, 0];
        let (out, _, seconds) = round(&s, 2, &mut next, false, Instant::now());
        assert_eq!((out.attempted, out.failed), (40, 0));
        assert_eq!(next, vec![PATTERN.len(); 2]);
        assert!(seconds > 0.0);
        let (out, tracer, _) = round(&s, 1, &mut next, true, Instant::now());
        assert_eq!(out.attempted, 20);
        assert_eq!(next, vec![2 * PATTERN.len(), PATTERN.len()]);
        assert_eq!(
            tracer
                .spans()
                .iter()
                .filter(|sp| sp.name == "serve.query")
                .count(),
            20
        );
    }

    /// The serve check fires: a query whose expected row count is wrong
    /// counts as failed even though the service answered it.
    #[test]
    fn a_wrong_expected_row_count_counts_as_a_failed_query() {
        let s = tiny();
        let client = s.service.client("t");
        let mut out = ClientOut::default();
        let mut t = Tracer::new(Instant::now(), false);
        for class in [Class::Point, Class::Filter, Class::Full] {
            let mut q = s.queries[0]
                .iter()
                .find(|q| q.class == class)
                .expect("class present")
                .clone();
            q.expected.rows += 1;
            assert!(!run_query(&client, &q, &mut out, &mut t));
            let mut q = s.queries[0]
                .iter()
                .find(|q| q.class == class)
                .expect("class present")
                .clone();
            q.expected.digest ^= 1;
            assert!(!run_query(&client, &q, &mut out, &mut t));
        }
        assert_eq!((out.attempted, out.failed), (6, 6));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = ColumnData::Int(vec![1, 2, 3]);
        let b = ColumnData::Int(vec![3, 2, 1]);
        let (mut x, mut y) = (Digest::new(1), Digest::new(1));
        x.update_all(0, &a);
        y.update_all(0, &b);
        assert_ne!(x.finish(), y.finish());
    }
}
