//! `ingest_live`: the write path with reads beside it. A live-ingest
//! `delta-serve` receives a contiguous window of 2024 as fixed-size
//! `?seq=` chunks from a closed-loop writer, while a second connection
//! reads the fresh snapshot open loop at a low rate. The WAL, the
//! streaming engine, `materialize_full`, the store rebuild and
//! checkpointing do the work.

use crate::client::{self, Conn, Resp};
use crate::serve::{self, Class, Planned, Query};
use crate::sys::Proc;
use crate::tracer::Tracer;
use crate::util::{median, percentile, sorted, us, Rng};
use crate::{finish_trace, Ctx, Report};
use resilience::{Pipeline, StreamingPipeline};
use servd::{
    ErrorFilter, IngestConfig, IngestStream, RollupMetric, RollupQuery, StoreHandle, StudyStore,
};
use simtime::Timestamp;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Live ingest takes one `--year`, so the window stays inside it.
const YEAR: i32 = 2024;
const WINDOW_DAYS: u64 = 14;
const CHUNK: usize = 64 * 1024;
/// The writer sends `POST /ingest/flush` after this many payload bytes.
const FLUSH_BYTES: usize = 2 << 20;
/// Publishes follow the event count only; the timer is set beyond any run.
const PUBLISH_EVENTS: u64 = 5000;
const PUBLISH_SECS: &str = "1000000";
/// The reader's open-loop rate (requests/s).
const READ_RATE: f64 = 150.0;
/// The four ingest streams in `IngestStream::ALL` order, by URL segment.
const STREAMS: [&str; 4] = ["logs", "jobs", "cpu-jobs", "outages"];

#[derive(Debug, Clone)]
pub struct Chunk {
    pub stream: usize,
    pub seq: u64,
    pub range: std::ops::Range<usize>,
}

/// The window's four streams and the order their chunks are sent in.
#[derive(Debug)]
pub struct Window {
    /// Unix second the window starts at.
    pub start: u64,
    pub first_day: String,
    pub streams: [Vec<u8>; 4],
    pub chunks: Vec<Chunk>,
}

impl Window {
    pub fn bytes(&self, c: &Chunk) -> &[u8] {
        &self.streams[c.stream][c.range.clone()]
    }

    pub fn total(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

fn parse_time(iso: &str) -> Option<u64> {
    servd::store::parse_time(iso).ok().map(|t| t.unix())
}

/// Rows of a CSV export whose `field` timestamp lies in `[start, end)`,
/// in time order, with the header first; also each row's offset and time.
fn csv_window(text: &str, field: usize, start: u64, end: u64) -> (Vec<u8>, Vec<(usize, u64)>) {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let mut rows: Vec<(u64, &str)> = lines
        .filter_map(|l| {
            let t = parse_time(l.split(',').nth(field)?)?;
            (start..end).contains(&t).then_some((t, l))
        })
        .collect();
    rows.sort_by_key(|r| r.0);
    let mut out = format!("{header}\n").into_bytes();
    let mut index = vec![(0, start)];
    for (t, l) in rows {
        index.push((out.len(), t));
        out.extend_from_slice(l.as_bytes());
        out.push(b'\n');
    }
    (out, index)
}

/// Cuts the seed's window out of the corpus and orders its chunks by the
/// time of the row each chunk starts in (ties by stream, then sequence).
pub fn window(ctx: &Ctx) -> Result<Window, String> {
    let year_start = Timestamp::from_ymd_hms(YEAR, 1, 1, 0, 0, 0)
        .map_err(|e| e.to_string())?
        .unix();
    let days_in_year = 366;
    let d0 = Rng::new(ctx.seed)
        .fork(3)
        .below(days_in_year - WINDOW_DAYS + 1);
    let start = year_start + d0 * 86_400;
    let end = start + WINDOW_DAYS * 86_400;

    let mut logs = Vec::new();
    let mut log_index = Vec::new();
    let mut first_day = String::new();
    for d in 0..WINDOW_DAYS {
        let day = start + d * 86_400;
        let (y, m, dd) = Timestamp::from_unix(day).ymd();
        let name = format!("syslog-{y:04}{m:02}{dd:02}.log");
        if first_day.is_empty() {
            first_day = name.clone();
        }
        let path = ctx.corpus.dir.join("logs").join(&name);
        let text = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut at = 0;
        for line in text.split_inclusive(|&b| b == b'\n') {
            // "Mmm dd HH:MM:SS host ..." — seconds into the file's day.
            let hms = std::str::from_utf8(line.get(7..15).unwrap_or_default()).unwrap_or("");
            let secs: Vec<u64> = hms.split(':').filter_map(|p| p.parse().ok()).collect();
            let t = match secs[..] {
                [h, mi, s] => day + h * 3600 + mi * 60 + s,
                _ => day,
            };
            log_index.push((logs.len() + at, t));
            at += line.len();
        }
        logs.extend_from_slice(&text);
    }
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (gpu, gpu_index) = csv_window(&read(&ctx.corpus.gpu_jobs)?, 2, start, end);
    let (cpu, cpu_index) = csv_window(&read(&ctx.corpus.cpu_jobs)?, 2, start, end);
    let (out, out_index) = csv_window(&read(&ctx.corpus.outages)?, 1, start, end);

    let streams = [logs, gpu, cpu, out];
    let indexes = [log_index, gpu_index, cpu_index, out_index];
    let mut keyed = Vec::new();
    for (s, bytes) in streams.iter().enumerate() {
        for (seq, lo) in (0..bytes.len()).step_by(CHUNK).enumerate() {
            let idx = &indexes[s];
            let row = idx.partition_point(|&(off, _)| off <= lo).saturating_sub(1);
            let time = idx.get(row).map_or(start, |r| r.1);
            keyed.push((
                time,
                Chunk {
                    stream: s,
                    seq: seq as u64,
                    range: lo..(lo + CHUNK).min(bytes.len()),
                },
            ));
        }
    }
    keyed.sort_by_key(|(time, c)| (*time, c.stream, c.seq));
    Ok(Window {
        start,
        first_day,
        streams,
        chunks: keyed.into_iter().map(|(_, c)| c).collect(),
    })
}

/// The surfaces checked after ingest: the paper tables, Fig 2, and every
/// coalesced error row (whose merge counts also catch a lost duplicate).
const SURFACES: [&str; 5] = ["/tables/1", "/tables/2", "/tables/3", "/fig2", "/errors"];

pub fn surfaces(store: &StudyStore) -> Vec<String> {
    vec![
        store.table1().to_owned(),
        store.table2().to_owned(),
        store.table3().to_owned(),
        store.fig2().to_owned(),
        store.errors_csv(&ErrorFilter::default()),
    ]
}

/// `Pipeline::run_lenient` over exactly the bytes streamed.
pub fn oracle(w: &Window) -> Vec<String> {
    let text = |i: usize| String::from_utf8_lossy(&w.streams[i]).into_owned();
    let (report, _) =
        Pipeline::delta().run_lenient(&w.streams[0][..], YEAR, &text(1), &text(2), &text(3));
    surfaces(&StudyStore::build(report, None))
}

/// Compares the served surfaces with the oracle's.
pub fn check_surfaces(bodies: &[Vec<u8>], want: &[String], when: &str) -> Vec<String> {
    SURFACES
        .iter()
        .zip(bodies)
        .zip(want)
        .filter(|((_, got), want)| got.as_slice() != want.as_bytes())
        .map(|((path, _), _)| {
            format!("{path} {when} differs from run_lenient over the streamed bytes")
        })
        .collect()
}

fn fetch_surfaces(addr: SocketAddr) -> Result<Vec<Vec<u8>>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    SURFACES
        .iter()
        .map(|p| {
            let resp = conn
                .roundtrip(&client::get(p), true, Duration::from_secs(30))
                .map_err(|e| format!("GET {p}: {e}"))?;
            Ok(resp.body.unwrap_or_default())
        })
        .collect()
}

fn spawn_server(ctx: &Ctx, dir: &Path) -> Result<(Proc, SocketAddr, f64), String> {
    let mut p = Proc::spawn(
        Command::new(&ctx.delta_serve)
            .arg("--ingest-dir")
            .arg(dir)
            .args(["--year", &YEAR.to_string(), "--addr", "127.0.0.1:0"])
            .args(["--publish-events", &PUBLISH_EVENTS.to_string()])
            .args(["--publish-secs", PUBLISH_SECS])
            .args(["--trace-capacity", "0", "--scrape-secs", "0"]),
    )?;
    let line = p.wait_line("serving on http://", Duration::from_secs(120))?;
    let ready = p.started.elapsed().as_secs_f64();
    let addr = line["serving on http://".len()..]
        .split_whitespace()
        .next()
        .unwrap_or_default()
        .parse()
        .map_err(|e| format!("bad address in {line:?}: {e}"))?;
    Ok((p, addr, ready))
}

/// The reader's queries against the fresh snapshot.
fn reader_targets(w_start: u64, rng: &mut Rng) -> Vec<Planned> {
    let end = w_start + WINDOW_DAYS * 86_400;
    let (from, to) = (
        Some(Timestamp::from_unix(w_start)),
        Some(Timestamp::from_unix(end)),
    );
    let host = format!("gpub{:03}", 1 + rng.below(106));
    let mut rollup = RollupQuery::for_metric(RollupMetric::Errors);
    (rollup.from, rollup.to) = (from, to);
    [
        ("/tables/1".to_owned(), Query::Table(1)),
        ("/fig2".to_owned(), Query::Fig2),
        ("/availability".to_owned(), Query::Availability),
        ("/mtbe".to_owned(), Query::Mtbe(None)),
        (
            format!("/errors?from={w_start}&to={end}"),
            Query::Errors(ErrorFilter {
                from,
                to,
                ..ErrorFilter::default()
            }),
        ),
        (
            format!("/rollup?metric=errors&bucket=day&from={w_start}&to={end}"),
            Query::Rollup(rollup),
        ),
        (
            format!("/errors?host={host}"),
            Query::Errors(ErrorFilter {
                host: Some(host),
                ..ErrorFilter::default()
            }),
        ),
    ]
    .into_iter()
    .map(|(target, query)| Planned {
        target,
        query,
        class: Class::Miss,
    })
    .collect()
}

#[derive(Debug, Default)]
struct Pass {
    seconds: f64,
    chunks: usize,
    bytes: usize,
    flush_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// The reader's answered requests, in order: query, latency, response.
    answered: Vec<(Planned, Duration, Resp)>,
    reads: u64,
    read_failed: u64,
    offers: u64,
    shed: u64,
    write_failed: u64,
    peak_rss_mib: f64,
    recover_s: f64,
    publishes: Option<u64>,
    wrong: Vec<String>,
}

fn publishes(addr: SocketAddr) -> Option<u64> {
    let mut conn = Conn::connect(addr).ok()?;
    let resp = conn
        .roundtrip(
            &client::get("/ingest/status"),
            true,
            Duration::from_secs(10),
        )
        .ok()?;
    let body = String::from_utf8(resp.body?).ok()?;
    let at = body.find("\"publishes\":")? + "\"publishes\":".len();
    body[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// One server lifetime: ingest the window, check it, stop, restart on
/// the same directory (recovery is the set-up time), check again.
fn pass(
    ctx: &Ctx,
    w: &Window,
    oracle: &[String],
    dir: &Path,
    rng: &mut Rng,
) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut server, addr, _) = spawn_server(ctx, dir)?;
    let mut out = Pass::default();
    let targets = reader_targets(w.start, rng);
    let max_reads = (READ_RATE * 300.0) as usize;
    let reads: Vec<Vec<u8>> = (0..max_reads)
        .map(|i| client::get(&targets[i % targets.len()].target))
        .collect();
    let due: Vec<Duration> = (0..max_reads)
        .map(|i| Duration::from_secs_f64(i as f64 / READ_RATE))
        .collect();
    let stop = AtomicBool::new(false);
    let (writer, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| -> std::io::Result<_> {
            let mut conn = [Conn::connect(addr)?];
            let drain = Duration::from_secs(10);
            Ok(client::open_loop(
                &mut conn,
                &reads,
                &due,
                usize::MAX,
                drain,
                Some(&stop),
            ))
        });
        let writer = write(addr, w, &mut out);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (writer, reader.join())
    });
    writer?;
    let reader = reader
        .map_err(|_| "reader thread panicked".to_owned())?
        .map_err(|e| format!("reader: {e}"))?;
    for (i, (o, sent)) in reader
        .outcomes
        .into_iter()
        .zip(reader.attempted)
        .enumerate()
    {
        if !sent {
            continue;
        }
        out.reads += 1;
        match o {
            Some(o) if o.resp.status == 200 => {
                out.read_ms.push(o.latency.as_secs_f64() * 1e3);
                let query = targets[i % targets.len()].clone();
                out.answered.push((query, o.latency, o.resp));
            }
            _ => out.read_failed += 1,
        }
    }
    out.wrong.extend(check_surfaces(
        &fetch_surfaces(addr)?,
        oracle,
        "after the last flush",
    ));
    out.publishes = publishes(addr);
    server.terminate();
    let exit = server.wait(Duration::from_secs(60))?;
    out.peak_rss_mib = exit.peak_rss_mib;

    let (mut again, addr, recover_s) = spawn_server(ctx, dir)?;
    out.recover_s = recover_s;
    out.wrong.extend(check_surfaces(
        &fetch_surfaces(addr)?,
        oracle,
        "after a restart",
    ));
    again.terminate();
    again.wait(Duration::from_secs(60))?;
    Ok(out)
}

/// The closed-loop writer: every chunk in order, a flush barrier after
/// every `FLUSH_BYTES`, and a final flush.
fn write(addr: SocketAddr, w: &Window, out: &mut Pass) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let limit = Duration::from_secs(60);
    let started = Instant::now();
    let mut since_flush = 0;
    let flush = |conn: &mut Conn, out: &mut Pass| -> Result<(), String> {
        let t = Instant::now();
        let resp = conn
            .roundtrip(&client::post("/ingest/flush", b""), false, limit)
            .map_err(|e| format!("flush: {e}"))?;
        if resp.status == 200 {
            out.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
        } else {
            out.write_failed += 1;
        }
        Ok(())
    };
    for c in &w.chunks {
        let target = format!("/ingest/{}?seq={}", STREAMS[c.stream], c.seq);
        let request = client::post(&target, w.bytes(c));
        loop {
            out.offers += 1;
            let resp: Resp = conn
                .roundtrip(&request, false, limit)
                .map_err(|e| format!("POST {target}: {e}"))?;
            match resp.status {
                200 => break,
                429 => {
                    out.shed += 1;
                    out.write_failed += 1;
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => return Err(format!("POST {target}: status {other}")),
            }
        }
        out.chunks += 1;
        out.bytes += c.range.len();
        since_flush += c.range.len();
        if since_flush >= FLUSH_BYTES {
            since_flush = 0;
            flush(&mut conn, out)?;
        }
    }
    flush(&mut conn, out)?;
    out.seconds = started.elapsed().as_secs_f64();
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let w = window(ctx)?;
    let oracle = oracle(&w);
    let dir = ctx.data.join("ingest");
    let mut rng = Rng::new(ctx.seed).fork(6);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs() < ctx.seconds {
        passes.push(pass(ctx, &w, &oracle, &dir, &mut rng)?);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut flush_ms = Vec::new();
    let mut read_ms = Vec::new();
    for p in &passes {
        r.attempted += p.offers + p.flush_ms.len() as u64 + p.reads;
        r.failed += p.write_failed + p.read_failed;
        flush_ms.extend_from_slice(&p.flush_ms);
        read_ms.extend_from_slice(&p.read_ms);
        for w in &p.wrong {
            r.wrong(w.clone());
        }
    }
    let recover: Vec<f64> = passes.iter().map(|p| p.recover_s).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mib).collect();
    let chunks_s: Vec<f64> = passes.iter().map(|p| p.chunks as f64 / p.seconds).collect();
    let mib_s: Vec<f64> = passes
        .iter()
        .map(|p| p.bytes as f64 / (1 << 20) as f64 / p.seconds)
        .collect();
    let read_sorted = sorted(&read_ms);
    r.metrics.insert("setup_s", median(&recover));
    r.metrics.insert("peak_rss_mib", median(&rss));
    r.metrics.insert("p50_ms", median(&flush_ms));
    r.metrics.insert("tail_ms", percentile(&read_sorted, 0.99));
    r.metrics.insert("rate_per_s", median(&chunks_s));
    r.line(format!(
        "window {} + {WINDOW_DAYS} days: {:.2} MiB in {} chunks of {} KiB; {} passes",
        w.first_day,
        w.total() as f64 / (1 << 20) as f64,
        w.chunks.len(),
        CHUNK / 1024,
        passes.len()
    ));
    r.stat("setup_s (recovery)", "s", &recover);
    r.stat("peak_rss_mib", "MiB", &rss);
    r.stat("ingest_mib_s", "MiB/s", &mib_s);
    r.stat("ingest chunks/s", "1/s", &chunks_s);
    r.stat("flush_ms", "ms", &flush_ms);
    r.stat("read_ms", "ms", &read_ms);
    r.line(format!(
        "  read_p50_ms {:.4}  read_p99_ms {:.4}  (n {}, {} beyond p99)",
        percentile(&read_sorted, 0.5),
        percentile(&read_sorted, 0.99),
        read_ms.len(),
        read_ms.len() / 100
    ));
    let shed: u64 = passes.iter().map(|p| p.shed).sum();
    r.line(format!(
        "  publishes per pass {:?}; 429s {shed}",
        passes.iter().map(|p| p.publishes).collect::<Vec<_>>()
    ));
    r.line(format!(
        "  checks: final and recovered /tables/1-3, /fig2 and /errors of {} passes vs run_lenient",
        passes.len()
    ));
    Ok(r)
}

/// What the engine replay counted.
#[derive(Debug, Default)]
struct Replay {
    publishes: u64,
    checkpoint_bytes: u64,
    pushed: usize,
    surfaces: Vec<String>,
    /// Service time of each replayed read.
    service: Vec<Duration>,
}

fn apply(engine: &mut StreamingPipeline, stream: usize, bytes: &[u8]) {
    match stream {
        0 => engine.push_log(bytes),
        1 => engine.push_gpu_jobs_csv(&String::from_utf8_lossy(bytes)),
        2 => engine.push_cpu_jobs_csv(&String::from_utf8_lossy(bytes)),
        _ => engine.push_outages_csv(&String::from_utf8_lossy(bytes)),
    }
}

/// The ingest worker's publish step, layer by layer.
fn publish(
    t: &mut Tracer,
    engine: &StreamingPipeline,
    dir: &Path,
    out: &mut Replay,
) -> Result<StudyStore, String> {
    t.span("servd.ingest.publish", |t| {
        let (report, quarantine) = t.span("core.incremental.materialize", |_| {
            engine.materialize_full()
        });
        let store = t.span("servd.store.build", |_| {
            StudyStore::build(report, Some(&quarantine))
        });
        let checkpoint = t.span("core.checkpoint.encode", |_| engine.checkpoint());
        let path = dir.join("replay.checkpoint");
        t.span("servd.ingest.persist", |_| {
            resilience::checkpoint::write_atomic(&path, checkpoint.as_bytes())
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
        out.publishes += 1;
        out.checkpoint_bytes = checkpoint.as_bytes().len() as u64;
        Ok(store)
    })
}

/// The write path in-process: every chunk offered to an `IngestHandle`
/// (WAL append), then the worker's apply/publish cadence replayed on a
/// `StreamingPipeline` with each layer call timed.
fn replay(t: &mut Tracer, w: &Window, dir: &Path, reads: &[Planned]) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut config = IngestConfig::new(dir);
    config.queue_capacity = w.chunks.len() + 1;
    let recovered =
        servd::ingest::recover(config, Pipeline::delta(), YEAR).map_err(|e| e.to_string())?;
    for c in &w.chunks {
        let offer = t.span("servd.ingest.offer", |_| {
            recovered
                .handle
                .offer(IngestStream::ALL[c.stream], Some(c.seq), w.bytes(c))
        });
        if !matches!(offer, servd::ingest::Offer::Accepted { .. }) {
            return Err(format!("offer of chunk {c:?} was not accepted: {offer:?}"));
        }
    }
    drop(recovered);

    let mut out = Replay::default();
    let mut engine = StreamingPipeline::new(Pipeline::delta(), YEAR);
    let mut published_lines = 0;
    let mut since_flush = 0;
    for c in &w.chunks {
        t.span("core.incremental.push", |_| {
            apply(&mut engine, c.stream, w.bytes(c))
        });
        out.pushed += c.range.len();
        if engine.ingested_lines() - published_lines >= PUBLISH_EVENTS {
            publish(t, &engine, dir, &mut out)?;
            published_lines = engine.ingested_lines();
        }
        since_flush += c.range.len();
        if since_flush >= FLUSH_BYTES {
            since_flush = 0;
            publish(t, &engine, dir, &mut out)?;
            published_lines = engine.ingested_lines();
        }
    }
    let handle = StoreHandle::new(publish(t, &engine, dir, &mut out)?);
    out.surfaces = surfaces(&handle.current().store);
    // The reader's requests, replayed through the read path against the
    // final snapshot.
    out.service = serve::replay(t, &handle, reads)?;
    Ok(out)
}

pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let w = window(ctx)?;
    let oracle = oracle(&w);
    let dir = ctx.data.join("ingest");
    let http = pass(ctx, &w, &oracle, &dir, &mut Rng::new(ctx.seed).fork(6))?;
    r.attempted += http.offers + http.reads;
    r.failed += http.write_failed + http.read_failed;
    for w in &http.wrong {
        r.wrong(w.clone());
    }

    let reads: Vec<Planned> = http.answered.iter().map(|a| a.0.clone()).collect();
    let mut t = Tracer::new(true);
    let started = Instant::now();
    let untraced = replay(&mut Tracer::new(false), &w, &dir, &reads)?;
    let untraced_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let traced = t.span("measure", |t| replay(t, &w, &dir, &reads))?;
    let traced_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    for run in [&untraced, &traced] {
        r.attempted += 1;
        if run.surfaces != oracle {
            r.wrong("replayed engine differs from run_lenient over the streamed bytes".to_owned());
        }
    }
    // Publishing follows the event count only, so the worker's cadence
    // replayed in-process must publish exactly as often as the server.
    r.attempted += 1;
    if http.publishes != Some(traced.publishes) {
        r.wrong(format!(
            "server reported {:?} publishes, the replayed cadence made {}",
            http.publishes, traced.publishes
        ));
    }
    let wire: Vec<f64> = http
        .answered
        .iter()
        .zip(&untraced.service)
        .map(|((_, latency, _), service)| us(*latency) - us(*service))
        .collect();
    let responses: Vec<&Resp> = http.answered.iter().map(|a| &a.2).collect();
    serve::read_layer_metrics(&t, reads.len(), &responses, &wire, &mut r.metrics);
    let m = &mut r.metrics;
    m.insert(
        "servd.ingest.offer_us",
        t.total("servd.ingest.offer").0 * 1e6 / w.chunks.len() as f64,
    );
    m.insert(
        "servd.ingest.shed_ratio",
        http.shed as f64 / http.offers.max(1) as f64,
    );
    m.insert(
        "core.incremental.push_s_per_mib",
        t.total("core.incremental.push").0 / (traced.pushed as f64 / (1 << 20) as f64),
    );
    m.insert(
        "core.incremental.materialize_s",
        t.total("core.incremental.materialize").0,
    );
    m.insert(
        "core.checkpoint.encode_s",
        t.total("core.checkpoint.encode").0,
    );
    m.insert("core.checkpoint.bytes", traced.checkpoint_bytes as f64);
    m.insert("servd.ingest.persist_s", t.total("servd.ingest.persist").0);
    m.insert("servd.ingest.publishes", traced.publishes as f64);
    m.insert("servd.store.build_s", t.total("servd.store.build").0);
    r.line(format!(
        "window {}: {} chunks; server publishes {:?}, replay publishes {}",
        w.first_day,
        w.chunks.len(),
        http.publishes,
        traced.publishes
    ));
    finish_trace(ctx, "ingest_live", &t, untraced_s, traced_s, &mut r)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{Campaign, FaultConfig};

    /// A small window built straight from a scaled simulation.
    fn small_window() -> Window {
        let campaign = Campaign::new(FaultConfig::delta_scaled(0.02)).run();
        let mut logs = Vec::new();
        for (day, _) in campaign.archive.days().take(20) {
            logs.extend_from_slice(
                campaign
                    .archive
                    .render_day(day)
                    .unwrap_or_default()
                    .as_bytes(),
            );
        }
        let header = "id,name,submit,start,end,gpus,gpu_slots,state\n"
            .as_bytes()
            .to_vec();
        let outages = b"host,start,duration_secs\n".to_vec();
        let chunks = (0..logs.len())
            .step_by(4096)
            .enumerate()
            .map(|(seq, lo)| Chunk {
                stream: 0,
                seq: seq as u64,
                range: lo..(lo + 4096).min(logs.len()),
            })
            .collect();
        Window {
            start: 0,
            first_day: String::new(),
            streams: [logs, header.clone(), header, outages],
            chunks,
        }
    }

    #[test]
    fn every_chunk_matches_the_oracle_and_a_dropped_chunk_fails() {
        let w = small_window();
        let oracle = oracle(&w);
        let serve = |skip: Option<usize>| {
            let mut engine = StreamingPipeline::new(Pipeline::delta(), YEAR);
            for (i, c) in w.chunks.iter().enumerate() {
                if Some(i) != skip {
                    apply(&mut engine, c.stream, w.bytes(c));
                }
            }
            let store = StudyStore::build(engine.materialize(), None);
            surfaces(&store)
                .into_iter()
                .map(String::into_bytes)
                .collect::<Vec<_>>()
        };
        assert!(w.chunks.len() > 4, "{}", w.chunks.len());
        assert!(check_surfaces(&serve(None), &oracle, "in test").is_empty());
        // Drop the chunk carrying the most XID lines.
        let xids = |c: &Chunk| w.bytes(c).windows(8).filter(|x| x == b"NVRM: Xi").count();
        let heaviest = (0..w.chunks.len())
            .max_by_key(|&i| xids(&w.chunks[i]))
            .expect("chunks");
        assert!(xids(&w.chunks[heaviest]) > 0);
        let failures = check_surfaces(&serve(Some(heaviest)), &oracle, "in test");
        assert!(!failures.is_empty());
    }
}
