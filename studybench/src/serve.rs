//! `serve_mix`: the dashboard and API read path over the full-scale
//! store, open loop at a reference rate and up a fixed ladder of rates.
//! The http parser, router, cache and store scans do the work; the batch
//! layers run only in set-up.

use crate::client::{self, Conn, Outcome, Resp};
use crate::corpus::{self, Corpus, Renders};
use crate::sys::Proc;
use crate::tracer::Tracer;
use crate::util::{digest, median, percentile, sorted, us, Rng};
use crate::{finish_trace, Ctx, Report};
use resilience::Pipeline;
use servd::http::{write_response, ParseProgress, Parser, RequestLimits};
use servd::{
    router, ErrorFilter, ResponseCache, RollupMetric, RollupQuery, StoreHandle, StudyStore,
};
use simtime::{Bucket, StudyPeriods, Timestamp};
use std::collections::{BTreeMap, HashSet};
use std::io::Read;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xid::ErrorKind;

/// Open-loop rate at which read latency is reported (requests/s).
const REF_RATE: f64 = 500.0;
/// The repository's read-p99 budget (E16/E20), in ms.
const LIMIT_MS: f64 = 25.0;
/// Ladder rungs above the reference rate, each `sqrt(2)` apart.
const MAX_RUNGS: u32 = 10;
/// Share of requests that repeat a dashboard key (cache hits).
const HIT_SHARE: f64 = 0.40;
/// Share of wide scans (bodies of 100 KB and more).
const WIDE_SHARE: f64 = 0.03;
/// Seeded share of repeated keys re-checked against the store.
const SAMPLE_ONE_IN: u64 = 50;
/// One load connection: with two, the client's second thread and the
/// second server loop made every metric follow the 2-core reference VM's
/// CPU share from run to run (p99 spread 0.59 over ten seeds, 0.12 with
/// one connection).
const CONNS: usize = 1;
/// Saturation phase: requests per `--seconds`, and pipeline depth per
/// connection.
const SATURATE_PER_SEC: usize = 840;
const SATURATE_DEPTH: usize = 8;
const BURSTS: usize = 7;
/// Stretches of each open-loop phase whose p99s give its tail; at the
/// reference rate each holds 1,000 requests (ten beyond its p99).
const WINDOWS: usize = 5;

#[derive(Debug, Clone)]
pub enum Query {
    Table(u8),
    Fig2,
    Availability,
    JobsImpact,
    Mtbe(Option<ErrorKind>),
    Errors(ErrorFilter),
    Rollup(RollupQuery),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
    Wide,
}

#[derive(Debug, Clone)]
pub struct Planned {
    pub target: String,
    pub query: Query,
    pub class: Class,
}

fn studied() -> Vec<(u16, ErrorKind)> {
    ErrorKind::STUDIED
        .iter()
        .map(|k| (k.codes()[0], *k))
        .collect()
}

fn hosts() -> Vec<String> {
    (1..=Pipeline::delta().node_count)
        .map(|i| format!("gpub{i:03}"))
        .collect()
}

/// The repeated dashboard keys.
pub fn dashboard() -> Vec<Planned> {
    let mut out: Vec<Planned> = [
        ("/tables/1", Query::Table(1)),
        ("/tables/2", Query::Table(2)),
        ("/tables/3", Query::Table(3)),
        ("/fig2", Query::Fig2),
        ("/availability", Query::Availability),
        ("/jobs/impact", Query::JobsImpact),
        ("/mtbe", Query::Mtbe(None)),
    ]
    .into_iter()
    .map(|(target, query)| Planned {
        target: target.to_owned(),
        query,
        class: Class::Hit,
    })
    .collect();
    for (code, kind) in studied() {
        out.push(Planned {
            target: format!("/mtbe?xid={code}"),
            query: Query::Mtbe(Some(kind)),
            class: Class::Hit,
        });
    }
    out
}

/// Draws requests: dashboard keys, filtered queries from a key space far
/// larger than the cache, and a small share of wide scans.
pub struct Mix {
    rng: Rng,
    dashboard: Vec<Planned>,
    hosts: Vec<String>,
    xids: Vec<(u16, ErrorKind)>,
    start: u64,
    end: u64,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let periods = StudyPeriods::delta();
        Mix {
            rng: Rng::new(seed).fork(1),
            dashboard: dashboard(),
            hosts: hosts(),
            xids: studied(),
            start: periods.pre_op.start.unix(),
            end: periods.op.end.unix(),
        }
    }

    /// A `[from, to)` window of `min_days..max_days` days at a random second.
    fn window(&mut self, min_days: u64, max_days: u64) -> (Timestamp, Timestamp) {
        let len =
            (min_days + self.rng.below(max_days - min_days + 1)) * 86_400 + self.rng.below(86_400);
        let from = self.start + self.rng.below(self.end - self.start - len);
        (Timestamp::from_unix(from), Timestamp::from_unix(from + len))
    }

    fn rollup(&mut self, metric: RollupMetric, host: bool) -> Planned {
        let bucket = *self.rng.pick(&[Bucket::Day, Bucket::Week, Bucket::Month]);
        let tz = *self.rng.pick(&["UTC", "America/Chicago", "Europe/Berlin"]);
        let (from, to) = self.window(30, 365);
        let mut q = RollupQuery::for_metric(metric);
        q.bucket = bucket;
        q.tz = tz.to_owned();
        q.from = Some(from);
        q.to = Some(to);
        let name = match metric {
            RollupMetric::Errors => "errors",
            RollupMetric::Mtbe => "mtbe",
            RollupMetric::Impact => "impact",
            RollupMetric::Availability => "availability",
        };
        let mut target = format!(
            "/rollup?metric={name}&bucket={}&tz={tz}&from={}&to={}",
            bucket.as_str(),
            from.unix(),
            to.unix()
        );
        if host {
            let h = self.rng.pick(&self.hosts).clone();
            target.push_str(&format!("&host={h}"));
            q.host = Some(h);
        }
        Planned {
            target,
            query: Query::Rollup(q),
            class: Class::Miss,
        }
    }

    fn errors(&mut self, host: bool, xid: bool, days: (u64, u64), class: Class) -> Planned {
        let (from, to) = self.window(days.0, days.1);
        let mut f = ErrorFilter {
            from: Some(from),
            to: Some(to),
            ..ErrorFilter::default()
        };
        let mut target = format!("/errors?from={}&to={}", from.unix(), to.unix());
        if host {
            let h = self.rng.pick(&self.hosts).clone();
            target.push_str(&format!("&host={h}"));
            f.host = Some(h);
        }
        if xid {
            let (code, kind) = *self.rng.pick(&self.xids);
            target.push_str(&format!("&xid={code}"));
            f.kind = Some(kind);
        }
        Planned {
            target,
            query: Query::Errors(f),
            class,
        }
    }

    pub fn draw(&mut self) -> Planned {
        let u = self.rng.unit();
        if u < HIT_SHARE {
            return self.rng.pick(&self.dashboard).clone();
        }
        if u >= 1.0 - WIDE_SHARE {
            return self.errors(false, false, (300, 330), Class::Wide);
        }
        match self.rng.below(5) {
            0 => self.errors(true, false, (7, 90), Class::Miss),
            1 => self.errors(false, true, (1, 30), Class::Miss),
            2 => self.errors(false, false, (1, 7), Class::Miss),
            // The host filter applies to metric=errors only.
            3 => self.rollup(RollupMetric::Errors, true),
            _ => {
                let metric = *self.rng.pick(&[
                    RollupMetric::Mtbe,
                    RollupMetric::Impact,
                    RollupMetric::Availability,
                ]);
                self.rollup(metric, false)
            }
        }
    }
}

/// What `StudyStore` renders for a query — the body the server must
/// send.
pub fn expected(store: &StudyStore, q: &Query) -> String {
    match q {
        Query::Table(1) => store.table1().to_owned(),
        Query::Table(2) => store.table2().to_owned(),
        Query::Table(_) => store.table3().to_owned(),
        Query::Fig2 => store.fig2().to_owned(),
        Query::Availability => store.availability_json(),
        Query::JobsImpact => store.jobs_impact_csv(),
        Query::Mtbe(kind) => store.mtbe_csv(*kind),
        Query::Errors(f) => store.errors_csv(f),
        Query::Rollup(q) => store
            .rollup_csv(q)
            .unwrap_or_else(|e| format!("error: {e}")),
    }
}

/// Checks every first response per key, plus a seeded sample of the
/// repeats, against the store's render; the paper surfaces are also
/// checked against the `Pipeline::run` render. Returns how many
/// responses were checked and what failed.
pub fn verify(
    store: &StudyStore,
    renders: &Renders,
    plan: &[Planned],
    got: &[Option<Resp>],
    seed: u64,
) -> (usize, Vec<String>) {
    let mut seen = HashSet::new();
    let mut sample = Rng::new(seed).fork(2);
    let (mut checked, mut failures) = (0, Vec::new());
    for (p, resp) in plan.iter().zip(got) {
        let first = seen.insert(p.target.as_str());
        let sampled = sample.below(SAMPLE_ONE_IN) == 0;
        let Some(resp) = resp else { continue };
        if !(first || sampled) {
            continue;
        }
        checked += 1;
        let want = expected(store, &p.query);
        let paper = match p.query {
            Query::Table(1) => Some(&renders.table1),
            Query::Table(2) => Some(&renders.table2),
            Query::Table(_) => Some(&renders.table3),
            Query::Fig2 => Some(&renders.fig2),
            _ => None,
        };
        if resp.status != 200 || resp.body_digest != digest(want.as_bytes()) {
            failures.push(format!(
                "{}: status {} or body differs from the store render",
                p.target, resp.status
            ));
        } else if paper.is_some_and(|paper| *paper != want) {
            failures.push(format!("{}: differs from the analyze render", p.target));
        }
    }
    (checked, failures)
}

fn server_config() -> servd::ServerConfig {
    servd::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        trace_capacity: 0,
        scrape_secs: 0,
        ..servd::ServerConfig::default()
    }
}

/// delta-serve's default shard count: the core count, capped at 8.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

/// The server process of `serve_mix`: builds the store through the
/// library calls `delta-cli analyze` makes, serves it with `servd::start`
/// at delta-serve's defaults (request tracing and self-scrape off),
/// prints `ready ADDR`, and shuts down when stdin closes.
pub fn serve_corpus(args: &[String]) -> Result<(), String> {
    let dir = args
        .first()
        .ok_or("serve-corpus needs the corpus directory")?;
    obs::set_enabled(true);
    let corpus = Corpus::open(std::path::Path::new(dir))?;
    let l = corpus::load(&corpus, &mut Tracer::new(false))?;
    let report = Pipeline::delta().run(&l.archive, &l.gpu_jobs, &l.cpu_jobs, &l.outages);
    drop(l);
    let store = StudyStore::build_sharded(report, None, default_shards());
    let server = servd::start(server_config(), Arc::new(StoreHandle::new(store)))
        .map_err(|e| e.to_string())?;
    println!("ready {}", server.addr());
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

fn schedule(n: usize, rate: f64) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// One open-loop phase's results.
struct Rung {
    rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    tail_ms: f64,
    late_ms: f64,
    failed: usize,
    attempted: usize,
    cut: bool,
}

impl Rung {
    fn passes(&self) -> bool {
        self.failed == 0 && !self.cut && self.p99_ms <= LIMIT_MS
    }
}

/// Runs `plan[from..]` open loop at `rate`; stores outcomes into `got`.
fn open_phase(
    conns: &mut [Conn],
    plan: &[Planned],
    from: usize,
    rate: f64,
    got: &mut Vec<Option<Resp>>,
    lat_ms: &mut Vec<f64>,
) -> Result<Rung, String> {
    let requests: Vec<Vec<u8>> = plan[from..]
        .iter()
        .map(|p| client::get(&p.target))
        .collect();
    let due = schedule(requests.len(), rate);
    // A backlog of a quarter second's requests per connection means the
    // server is not keeping up: stop sending rather than queue forever.
    let backlog = (rate * 0.25 / CONNS as f64) as usize + 8;
    let run = client::open_loop(
        conns,
        &requests,
        &due,
        backlog,
        Duration::from_secs(10),
        None,
    );
    let mut lat = Vec::new();
    let mut late = Vec::new();
    let (mut failed, mut attempted) = (0, 0);
    for (o, sent) in run.outcomes.into_iter().zip(run.attempted) {
        if sent {
            attempted += 1;
        }
        match o {
            Some(Outcome {
                latency,
                late: l,
                resp,
                ..
            }) if resp.status == 200 => {
                lat.push(latency.as_secs_f64() * 1e3);
                late.push(l.as_secs_f64() * 1e3);
                got.push(Some(resp));
            }
            Some(o) => {
                failed += 1;
                got.push(Some(o.resp));
            }
            None => {
                failed += usize::from(sent);
                got.push(None);
            }
        }
    }
    let s = sorted(&lat);
    // p99 of each of `WINDOWS` consecutive stretches of the phase (in due
    // order); their median is the rung's tail, robust to stalled stretches.
    let window = lat.len() / WINDOWS;
    let windows: Vec<f64> = (0..WINDOWS)
        .map(|k| percentile(&sorted(&lat[k * window..(k + 1) * window]), 0.99))
        .collect();
    lat_ms.extend_from_slice(&lat);
    Ok(Rung {
        rate,
        p50_ms: percentile(&s, 0.5),
        p99_ms: if failed > 0 {
            f64::INFINITY
        } else {
            percentile(&s, 0.99)
        },
        tail_ms: median(&windows),
        late_ms: percentile(&sorted(&late), 0.99),
        failed,
        attempted,
        cut: run.backlog_cut,
    })
}

/// The highest rate meeting the p99 limit: interpolated (log-log) between
/// the last passing rung and the first failing one.
fn sustain(rungs: &[Rung]) -> (f64, f64) {
    let Some(fail) = rungs.iter().position(|r| !r.passes()) else {
        let top = rungs.last().map_or(0.0, |r| r.rate);
        return (top, top);
    };
    if fail == 0 {
        let r = &rungs[0];
        return (0.0, r.rate * (LIMIT_MS / r.p99_ms.max(LIMIT_MS)));
    }
    let (a, b) = (&rungs[fail - 1], &rungs[fail]);
    let p_b = if b.failed > 0 || b.cut {
        f64::INFINITY
    } else {
        b.p99_ms
    };
    let p_b = p_b.max(LIMIT_MS * 4.0);
    let frac = ((LIMIT_MS / a.p99_ms).ln() / (p_b / a.p99_ms).ln()).clamp(0.0, 1.0);
    (a.rate, a.rate * (b.rate / a.rate).powf(frac))
}

fn warmup(
    addr: SocketAddr,
    plan: &[Planned],
    got: &mut Vec<Option<Resp>>,
) -> Result<usize, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut failed = 0;
    for p in plan {
        match conn.roundtrip(&client::get(&p.target), false, Duration::from_secs(30)) {
            Ok(resp) => {
                failed += usize::from(resp.status != 200);
                got.push(Some(resp));
            }
            Err(_) => {
                failed += 1;
                got.push(None);
            }
        }
    }
    Ok(failed)
}

/// The load's keep-alive connections.
fn connect(addr: SocketAddr) -> Result<Vec<Conn>, String> {
    (0..CONNS)
        .map(|_| Conn::connect(addr).map_err(|e| e.to_string()))
        .collect()
}

/// Length of the reference-rate phase: two thirds of the run, at least
/// enough for 1,000 requests per window.
fn ref_secs(ctx: &Ctx) -> f64 {
    (ctx.seconds as f64 * 2.0 / 3.0).max(1000.0 * WINDOWS as f64 / REF_RATE)
}

/// The warm-up requests: every dashboard key once, then a few draws.
fn warm_plan(mix: &mut Mix) -> Vec<Planned> {
    let mut plan = dashboard();
    plan.extend((0..64).map(|_| mix.draw()));
    plan
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let mut mix = Mix::new(ctx.seed);
    let mut plan = warm_plan(&mut mix);
    let ref_secs = ref_secs(ctx);
    let ladder_secs = ctx.seconds as f64 * 0.2;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut server = Proc::spawn(Command::new(exe).arg("serve-corpus").arg(&ctx.corpus.dir))?;
    let ready = server.wait_line("ready ", Duration::from_secs(170))?;
    let setup_s = server.started.elapsed().as_secs_f64();
    let addr: SocketAddr = ready["ready ".len()..]
        .parse()
        .map_err(|e| format!("bad ready line {ready:?}: {e}"))?;

    let mut got = Vec::new();
    r.failed += warmup(addr, &plan, &mut got)? as u64;
    r.attempted += plan.len() as u64;
    let mut conns = connect(addr)?;

    let mut ref_lat = Vec::new();
    let from = plan.len();
    plan.extend((0..(REF_RATE * ref_secs) as usize).map(|_| mix.draw()));
    let reference = open_phase(&mut conns, &plan, from, REF_RATE, &mut got, &mut ref_lat)?;
    let ref_range = from..plan.len();
    let mut rungs = vec![reference];
    let ladder_start = Instant::now();
    for k in 1..=MAX_RUNGS {
        let rate = REF_RATE * 2f64.powf(f64::from(k) / 2.0);
        let secs = (1200.0 / rate).max(0.6);
        if ladder_start.elapsed().as_secs_f64() + secs > ladder_secs {
            break;
        }
        let from = plan.len();
        plan.extend((0..(rate * secs) as usize).map(|_| mix.draw()));
        let rung = open_phase(&mut conns, &plan, from, rate, &mut got, &mut Vec::new())?;
        let pass = rung.passes();
        rungs.push(rung);
        if !pass {
            break;
        }
    }
    for rung in &rungs {
        r.attempted += rung.attempted as u64;
        r.failed += rung.failed as u64;
    }

    // Capacity: bursts of a fixed request count, closed loop with
    // pipelining; the median burst is robust to a stalled one.
    let burst = SATURATE_PER_SEC * ctx.seconds as usize / BURSTS;
    let mut bursts = Vec::new();
    for _ in 0..BURSTS {
        let from = plan.len();
        plan.extend((0..burst).map(|_| mix.draw()));
        let requests: Vec<Vec<u8>> = plan[from..]
            .iter()
            .map(|p| client::get(&p.target))
            .collect();
        let (responses, elapsed) = client::saturate(
            &mut conns,
            &requests,
            SATURATE_DEPTH,
            Duration::from_secs(60),
        );
        let ok = responses
            .iter()
            .filter(|x| x.as_ref().is_some_and(|x| x.status == 200))
            .count();
        r.attempted += responses.len() as u64;
        r.failed += (responses.len() - ok) as u64;
        got.extend(responses);
        bursts.push(ok as f64 / elapsed.as_secs_f64());
    }
    let capacity_rps = median(&bursts);

    server.close_stdin();
    let exit = server.wait(Duration::from_secs(60))?;
    if !exit.success {
        r.wrong("the serve process exited unsuccessfully".to_owned());
    }

    // The oracle: the same store built in this process once the server
    // has exited, so the two never hold the corpus in memory together.
    let l = corpus::load(&ctx.corpus, &mut Tracer::new(false))?;
    let report = Pipeline::delta().run(&l.archive, &l.gpu_jobs, &l.cpu_jobs, &l.outages);
    drop(l);
    let renders = Renders::of(&report, &mut Tracer::new(false));
    let store = StudyStore::build(report, None);
    let (checked, failures) = verify(&store, &renders, &plan, &got, ctx.seed);
    for f in failures {
        r.wrong(f);
    }

    let reference = &rungs[0];
    let (highest, sustain_rps) = sustain(&rungs);
    let ref_resps: Vec<&Resp> = got[ref_range.clone()].iter().flatten().collect();
    let hits = ref_resps
        .iter()
        .filter(|x| x.cache_hit == Some(true))
        .count();
    let wide: Vec<usize> = plan[ref_range.clone()]
        .iter()
        .zip(&got[ref_range])
        .filter(|(p, _)| p.class == Class::Wide)
        .filter_map(|(_, g)| g.as_ref().map(|g| g.body_len))
        .collect();
    r.metrics.insert("setup_s", setup_s);
    r.metrics.insert("peak_rss_mib", exit.peak_rss_mib);
    r.metrics.insert("p50_ms", reference.p50_ms);
    r.metrics.insert("tail_ms", reference.tail_ms);
    r.metrics.insert("rate_per_s", capacity_rps);
    r.line(format!(
        "store rows {}; reference {REF_RATE} req/s for {ref_secs:.1} s, connections: {CONNS}",
        store.error_rows()
    ));
    r.line(format!("  setup_s                {setup_s:>12.4} s"));
    r.line(format!(
        "  peak_rss_mib           {:>12.1} MiB",
        exit.peak_rss_mib
    ));
    r.stat("read_ms", "ms", &ref_lat);
    r.line(format!(
        "  read_p50_ms {:.4}  read_p99_ms {:.4}, median of {WINDOWS} windows {:.4}  (n {}, {} beyond p99)",
        reference.p50_ms,
        reference.p99_ms,
        reference.tail_ms,
        ref_lat.len(),
        ref_lat.len() / 100
    ));
    r.line(format!(
        "  cache hit ratio {:.4}; wide scans {} (smallest body {} B)",
        hits as f64 / ref_resps.len().max(1) as f64,
        wide.len(),
        wide.iter().min().copied().unwrap_or(0)
    ));
    for rung in &rungs {
        r.line(format!(
            "  rung {:>7.0} req/s: p50 {:>8.3} ms p99 {:>9.3} ms, generator late p99 {:>7.3} ms, {}/{} failed{} -> {}",
            rung.rate,
            rung.p50_ms,
            rung.p99_ms,
            rung.late_ms,
            rung.failed,
            rung.attempted,
            if rung.cut { ", backlog growing" } else { "" },
            if rung.passes() { "meets" } else { "misses" }
        ));
    }
    r.line(format!(
        "  sustain_rps {sustain_rps:.1} (highest passing rung {highest:.0}, limit p99 <= {LIMIT_MS} ms)"
    ));
    r.stat("capacity_rps", "1/s", &bursts);
    r.line(format!(
        "  (capacity: {BURSTS} bursts of {burst} requests, {SATURATE_DEPTH} in flight per connection)"
    ));
    r.line(format!(
        "  checks: {checked} responses compared with the store render"
    ));
    Ok(r)
}

/// Replays `plan` through the layer calls a request crosses — parse,
/// route (cache + render), write — with the store renders the router
/// made also timed on their own. Returns each request's service time.
pub fn replay(
    t: &mut Tracer,
    handle: &StoreHandle,
    plan: &[Planned],
) -> Result<Vec<Duration>, String> {
    let cache = ResponseCache::new();
    let published = handle.current();
    let store = &published.store;
    let mut out = Vec::with_capacity(plan.len());
    for p in plan {
        let bytes = client::get(&p.target);
        let started = Instant::now();
        let missed = t.span("servd.request", |t| -> Result<bool, String> {
            let req = t.span("servd.http.parse", |_| {
                let mut parser = Parser::new(RequestLimits::unbounded());
                parser.push(&bytes);
                match parser.poll(None) {
                    ParseProgress::Done(req) => Ok(req),
                    other => Err(format!("{}: did not parse: {other:?}", p.target)),
                }
            })?;
            let resp = t.span("servd.router.handle", |_| {
                router::handle(&req, handle, &cache, None)
            });
            let mut wire = Vec::with_capacity(resp.body.len() + 256);
            t.span("servd.http.write", |_| {
                write_response(&mut wire, &resp, true, false)
            })
            .map_err(|e| e.to_string())?;
            Ok(resp
                .extra
                .iter()
                .any(|(k, v)| *k == "X-Cache" && v == "miss"))
        })?;
        let service = started.elapsed();
        if missed {
            match &p.query {
                Query::Errors(f) => t.span("servd.store.errors", |_| drop(store.errors_csv(f))),
                Query::Rollup(q) => t.span("servd.store.rollup", |_| drop(store.rollup_csv(q))),
                Query::Mtbe(k) => t.span("servd.store.mtbe", |_| drop(store.mtbe_csv(*k))),
                _ => {}
            }
        }
        out.push(service);
    }
    Ok(out)
}

/// The read-path per-layer metrics of a `replay` of `requests` requests:
/// `responses` are the client's, `wire_us` each request's client latency
/// minus its in-process service time.
pub fn read_layer_metrics(
    t: &Tracer,
    requests: usize,
    responses: &[&Resp],
    wire_us: &[f64],
    m: &mut BTreeMap<&'static str, f64>,
) {
    let n = requests.max(1) as f64;
    let per_call = |name: &str| {
        let (secs, calls) = t.total(name);
        if calls == 0 {
            0.0
        } else {
            secs * 1e6 / calls as f64
        }
    };
    let renders_s = t.total("servd.store.errors").0
        + t.total("servd.store.rollup").0
        + t.total("servd.store.mtbe").0;
    let answered = responses.len().max(1) as f64;
    m.insert(
        "servd.http.parse_us",
        t.total("servd.http.parse").0 * 1e6 / n,
    );
    m.insert(
        "servd.router.self_us",
        (t.total("servd.router.handle").0 - renders_s) * 1e6 / n,
    );
    m.insert(
        "servd.cache.hit_ratio",
        responses
            .iter()
            .filter(|x| x.cache_hit == Some(true))
            .count() as f64
            / answered,
    );
    m.insert("servd.store.errors_us", per_call("servd.store.errors"));
    m.insert("servd.store.rollup_us", per_call("servd.store.rollup"));
    m.insert("servd.store.mtbe_us", per_call("servd.store.mtbe"));
    m.insert(
        "servd.store.bytes_per_req",
        responses.iter().map(|x| x.body_len as f64).sum::<f64>() / answered,
    );
    m.insert(
        "servd.http.write_us",
        t.total("servd.http.write").0 * 1e6 / n,
    );
    m.insert("servd.server.wire_us", median(wire_us));
}

pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let mut t = Tracer::new(true);
    let (store, counts) = t.span("setup", |t| -> Result<_, String> {
        let loaded = corpus::load(&ctx.corpus, t)?;
        let (report, counts) = corpus::analyze(&loaded, t);
        drop(loaded);
        let store = t.span("servd.store.build", |_| {
            StudyStore::build_sharded(report, None, default_shards())
        });
        Ok((store, counts))
    })?;
    let handle = Arc::new(StoreHandle::new(store));

    let mut mix = Mix::new(ctx.seed);
    let mut plan = warm_plan(&mut mix);
    let ref_secs = ref_secs(ctx);
    let server = servd::start(server_config(), Arc::clone(&handle)).map_err(|e| e.to_string())?;
    let mut got = Vec::new();
    r.failed += warmup(server.addr(), &plan, &mut got)? as u64;
    r.attempted += plan.len() as u64;
    let from = plan.len();
    plan.extend((0..(REF_RATE * ref_secs) as usize).map(|_| mix.draw()));
    let requests: Vec<Vec<u8>> = plan[from..]
        .iter()
        .map(|p| client::get(&p.target))
        .collect();
    let mut conns = connect(server.addr())?;
    let due = schedule(requests.len(), REF_RATE);
    let run = client::open_loop(
        &mut conns,
        &requests,
        &due,
        usize::MAX,
        Duration::from_secs(10),
        None,
    );
    drop(conns);
    server.shutdown();
    let mut client_lat = Vec::new();
    for o in run.outcomes {
        r.attempted += 1;
        client_lat.push(o.as_ref().map(|o| o.latency));
        if o.as_ref().is_none_or(|o| o.resp.status != 200) {
            r.failed += 1;
        }
        got.push(o.map(|o| o.resp));
    }

    // Replay in-process: once with spans off, once on.
    let started = Instant::now();
    let untraced = replay(&mut Tracer::new(false), &handle, &plan)?;
    let untraced_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    t.span("measure", |t| replay(t, &handle, &plan))?;
    let traced_s = started.elapsed().as_secs_f64();

    {
        let published = handle.current();
        let renders = Renders {
            table1: published.store.table1().to_owned(),
            table2: published.store.table2().to_owned(),
            table3: published.store.table3().to_owned(),
            fig2: published.store.fig2().to_owned(),
        };
        let (checked, failures) = verify(&published.store, &renders, &plan, &got, ctx.seed);
        for f in failures {
            r.wrong(f);
        }
        r.line(format!(
            "checks: {checked} responses compared with the store render"
        ));
    }

    let wire: Vec<f64> = client_lat
        .iter()
        .zip(&untraced[from..])
        .filter_map(|(c, s)| c.map(|c| us(c) - us(*s)))
        .collect();
    let ref_resps: Vec<&Resp> = got[from..].iter().flatten().collect();
    read_layer_metrics(&t, plan.len(), &ref_resps, &wire, &mut r.metrics);
    let coalesce = t.total("core.pipeline.coalesce").0;
    let m = &mut r.metrics;
    m.insert("hpclog.parse_s", t.total("hpclog.parse").0);
    m.insert("hpclog.lines", counts.lines as f64);
    m.insert("hpclog.extract_s", t.total("hpclog.extract").0);
    m.insert("hpclog.events", counts.events as f64);
    m.insert("core.csvio.parse_s", t.total("core.csvio.parse").0);
    m.insert("core.csvio.rows", counts.csv_rows as f64);
    m.insert("core.pipeline.coalesce_s", coalesce);
    m.insert(
        "core.pipeline.merge_ratio",
        counts.errors as f64 / counts.events.max(1) as f64,
    );
    m.insert(
        "core.pipeline.assemble_s",
        t.total("core.pipeline.run_events").0 - coalesce,
    );
    m.insert("servd.store.build_s", t.total("servd.store.build").0);
    finish_trace(ctx, "serve_mix", &t, untraced_s, traced_s, &mut r)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{Campaign, FaultConfig};

    fn small_store() -> StudyStore {
        let campaign = Campaign::new(FaultConfig::delta_scaled(0.02)).run();
        let report = Pipeline::delta().run(&campaign.archive, &[], &[], &[]);
        StudyStore::build(report, None)
    }

    fn renders(store: &StudyStore) -> Renders {
        Renders {
            table1: store.table1().to_owned(),
            table2: store.table2().to_owned(),
            table3: store.table3().to_owned(),
            fig2: store.fig2().to_owned(),
        }
    }

    /// Serves `plan` through the router in-process, as the wire would.
    fn respond(store: StudyStore, plan: &[Planned]) -> (StudyStore, Vec<Option<Resp>>) {
        let handle = StoreHandle::new(store);
        let cache = ResponseCache::new();
        let got = plan
            .iter()
            .map(|p| {
                let mut parser = Parser::new(RequestLimits::unbounded());
                parser.push(&client::get(&p.target));
                let ParseProgress::Done(req) = parser.poll(None) else {
                    panic!("{} did not parse", p.target)
                };
                let resp = router::handle(&req, &handle, &cache, None);
                Some(Resp {
                    status: resp.status,
                    cache_hit: None,
                    body_len: resp.body.len(),
                    body_digest: digest(resp.body.as_bytes()),
                    body: None,
                })
            })
            .collect();
        let store = StudyStore::build(handle.current().store.report().clone(), None);
        (store, got)
    }

    #[test]
    fn untouched_responses_pass_and_a_tampered_body_fails() {
        let mut mix = Mix::new(3);
        let mut plan = dashboard();
        plan.extend((0..300).map(|_| mix.draw()));
        let (store, mut got) = respond(small_store(), &plan);
        let r = renders(&store);
        let (checked, failures) = verify(&store, &r, &plan, &got, 3);
        assert!(checked >= dashboard().len(), "{checked}");
        assert!(failures.is_empty(), "{failures:?}");

        // Tamper with the first non-empty miss response.
        let i = plan
            .iter()
            .zip(&got)
            .position(|(p, g)| {
                p.class == Class::Miss && g.as_ref().is_some_and(|g| g.body_len > 40)
            })
            .expect("a non-empty miss");
        if let Some(resp) = got[i].as_mut() {
            resp.body_digest ^= 1;
        }
        let (_, failures) = verify(&store, &r, &plan, &got, 3);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains(&plan[i].target));
    }

    #[test]
    fn every_drawn_query_is_accepted_by_the_router() {
        let mut mix = Mix::new(9);
        let plan: Vec<Planned> = (0..500).map(|_| mix.draw()).collect();
        let (_, got) = respond(small_store(), &plan);
        for (p, g) in plan.iter().zip(&got) {
            assert_eq!(g.as_ref().map(|g| g.status), Some(200), "{}", p.target);
        }
        let hits = plan.iter().filter(|p| p.class == Class::Hit).count() as f64 / 500.0;
        assert!((0.3..0.5).contains(&hits), "{hits}");
    }
}
