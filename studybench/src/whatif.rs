//! `whatif_cold`: two closed-loop clients each submit distinct seeded
//! `/whatif` campaigns (`reps=2`, mixing the `mttr_scale`, `xid_rate`
//! and `sched` axes). The only workload in which faultsim, clustersim
//! and slurmsim do the work; every campaign is a cache miss.

use crate::client::{self, Resp};
use crate::sys::Proc;
use crate::tracer::Tracer;
use crate::util::{digest, median, percentile, sorted, Rng};
use crate::{finish_trace, Ctx, Report};
use resilience::scenario::{run_campaign, ScenarioSpec, SIM_SCALE};
use servd::whatif::render_result;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fresh servers per run (each start is a set-up sample).
const SEGMENTS: u32 = 3;
/// Extra start-to-ready samples per run, without load.
const SETUP_PROBES: usize = 6;
/// Campaigns per run re-run in-process and compared byte for byte.
const CHECKS: usize = 4;
/// The server's default rep cap, which `ScenarioSpec::parse` enforces.
const REP_CAP: u32 = 32;
const PROBE_SEED: usize = 2_000_000_000;
const TAIL: f64 = 0.8;

/// The query pairs of campaign `i` under workload seed `seed`.
pub fn spec_pairs(seed: u64, i: usize) -> Vec<(String, String)> {
    let mut rng = Rng::new(seed).fork(4).fork(i as u64);
    let mut pairs = vec![
        (
            "seed".to_owned(),
            (seed.wrapping_mul(1_000_003).wrapping_add(i as u64) % 1_000_000_007).to_string(),
        ),
        ("reps".to_owned(), "2".to_owned()),
    ];
    if rng.unit() < 0.7 {
        let scale = *rng.pick(&["0.25", "0.5", "0.75", "1.5", "2", "3"]);
        pairs.push(("mttr_scale".to_owned(), scale.to_owned()));
    }
    let mut families = vec![31u16, 48, 74, 79, 119, 122];
    for _ in 0..rng.below(3) {
        let code = families.remove(rng.below(families.len() as u64) as usize);
        let mult = *rng.pick(&["0.5", "2", "3"]);
        pairs.push(("xid_rate".to_owned(), format!("{code}:{mult}")));
    }
    let sched = *rng.pick(&["fifo", "backfill"]);
    pairs.push(("sched".to_owned(), sched.to_owned()));
    pairs
}

fn target(pairs: &[(String, String)]) -> String {
    let q: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("/whatif?{}", q.join("&"))
}

/// The body the server must send: `render_result(run_campaign(spec))`.
pub fn expected(pairs: &[(String, String)]) -> Result<String, String> {
    let spec = ScenarioSpec::parse(pairs, REP_CAP).map_err(|e| e.to_string())?;
    let result = run_campaign(&spec, |_, _| {}).map_err(|e| e.to_string())?;
    Ok(render_result(&result))
}

/// Checks a campaign response against the in-process render.
pub fn check(seed: u64, i: usize, resp: &Resp) -> Option<String> {
    let pairs = spec_pairs(seed, i);
    match expected(&pairs) {
        Ok(body) if resp.status == 200 && resp.body_digest == digest(body.as_bytes()) => None,
        Ok(_) => Some(format!(
            "{}: status {} or body differs from run_campaign",
            target(&pairs),
            resp.status
        )),
        Err(e) => Some(format!("{}: {e}", target(&pairs))),
    }
}

struct Done {
    index: usize,
    latency: Duration,
    resp: Option<Resp>,
}

struct Segment {
    setup_s: f64,
    peak_rss_mib: f64,
    seconds: f64,
    done: Vec<Done>,
}

/// Starts `delta-serve` (batch mode over one day file; the campaigns do
/// not read the store) and returns it once ready, with its address and
/// start-to-ready seconds. One campaign worker: with two, the campaigns
/// take both cores of the 2-core reference VM, and their rate followed
/// the VM's CPU share from run to run (spread 0.28 over ten seeds).
fn start(ctx: &Ctx) -> Result<(Proc, SocketAddr, f64), String> {
    let day = ctx.corpus.logs.first().ok_or("corpus has no day files")?;
    let mut p = Proc::spawn(Command::new(&ctx.delta_serve).arg(day).args([
        "--addr",
        "127.0.0.1:0",
        "--trace-capacity",
        "0",
        "--scrape-secs",
        "0",
        "--whatif-workers",
        "1",
    ]))?;
    let line = p.wait_line("serving on http://", Duration::from_secs(120))?;
    let setup_s = p.started.elapsed().as_secs_f64();
    let addr: SocketAddr = line["serving on http://".len()..]
        .split_whitespace()
        .next()
        .unwrap_or_default()
        .parse()
        .map_err(|e| format!("bad address in {line:?}: {e}"))?;
    Ok((p, addr, setup_s))
}

/// One server lifetime: both clients run campaigns until `secs` have
/// passed.
fn segment(ctx: &Ctx, next: &AtomicUsize, secs: f64) -> Result<Segment, String> {
    let (mut p, addr, setup_s) = start(ctx)?;
    // The probe campaign's seed is outside the range `spec_pairs` draws.
    let slow =
        |attempt: usize| client::get(&format!("/whatif?reps=1&seed={}", PROBE_SEED + attempt));
    let conns = client::distinct_pair(addr, slow, &client::get("/healthz"))
        .map_err(|e| format!("connecting: {e}"))?;
    let done = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for mut conn in conns {
            let done = &done;
            s.spawn(move || {
                while Instant::now() < deadline {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let request = client::get(&target(&spec_pairs(ctx.seed, index)));
                    let sent = Instant::now();
                    let resp = conn
                        .roundtrip(&request, false, Duration::from_secs(120))
                        .ok();
                    let latency = sent.elapsed();
                    let failed = resp.is_none();
                    if let Ok(mut d) = done.lock() {
                        d.push(Done {
                            index,
                            latency,
                            resp,
                        });
                    }
                    if failed {
                        break;
                    }
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    p.terminate();
    let exit = p.wait(Duration::from_secs(60))?;
    let mut done = done
        .into_inner()
        .map_err(|_| "client thread panicked".to_owned())?;
    done.sort_by_key(|d| d.index);
    Ok(Segment {
        setup_s,
        peak_rss_mib: exit.peak_rss_mib,
        seconds,
        done,
    })
}

/// Tallies responses; returns the latencies of the good ones.
fn tally(r: &mut Report, done: &[Done]) -> Vec<f64> {
    let mut lat = Vec::new();
    for d in done {
        r.attempted += 1;
        match &d.resp {
            Some(resp) if resp.status == 200 && resp.cache_hit == Some(false) => {
                lat.push(d.latency.as_secs_f64() * 1e3);
            }
            _ => r.failed += 1,
        }
    }
    lat
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let next = AtomicUsize::new(0);
    let per = ctx.seconds as f64 / f64::from(SEGMENTS);
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|_| segment(ctx, &next, per))
        .collect::<Result<_, _>>()?;
    let done: Vec<&Done> = segments.iter().flat_map(|s| &s.done).collect();
    let mut lat = Vec::new();
    for s in &segments {
        lat.extend(tally(&mut r, &s.done));
    }
    let mut pick = Rng::new(ctx.seed).fork(5);
    let mut candidates: Vec<&&Done> = done.iter().filter(|d| d.resp.is_some()).collect();
    for _ in 0..CHECKS.min(candidates.len()) {
        let d = candidates.remove(pick.below(candidates.len() as u64) as usize);
        if let Some(w) = d
            .resp
            .as_ref()
            .and_then(|resp| check(ctx.seed, d.index, resp))
        {
            r.wrong(w);
        }
    }
    let mut setup: Vec<f64> = segments.iter().map(|s| s.setup_s).collect();
    for _ in 0..SETUP_PROBES {
        let (mut p, _, secs) = start(ctx)?;
        p.terminate();
        p.wait(Duration::from_secs(60))?;
        setup.push(secs);
    }
    let rss: Vec<f64> = segments.iter().map(|s| s.peak_rss_mib).collect();
    let seconds: f64 = segments.iter().map(|s| s.seconds).sum();
    let s = sorted(&lat);
    r.metrics.insert("setup_s", median(&setup));
    r.metrics.insert("peak_rss_mib", median(&rss));
    r.metrics.insert("p50_ms", percentile(&s, 0.5));
    // About 50 campaigns a run: p80 is the highest percentile with ten
    // samples beyond it.
    r.metrics.insert("tail_ms", percentile(&s, TAIL));
    r.metrics.insert("rate_per_s", lat.len() as f64 / seconds);
    r.line(format!(
        "{} campaigns (reps=2, sim scale {SIM_SCALE}) over {SEGMENTS} servers, 2 closed-loop clients",
        lat.len()
    ));
    r.stat("setup_s", "s", &setup);
    r.stat("peak_rss_mib", "MiB", &rss);
    r.stat("whatif_ms", "ms", &lat);
    r.line(format!(
        "  whatif_p50_ms {:.3}  p80 {:.3} ms ({} beyond)  whatif_per_s {:.4}",
        percentile(&s, 0.5),
        percentile(&s, TAIL),
        (lat.len() as f64 * (1.0 - TAIL)) as usize,
        lat.len() as f64 / seconds
    ));
    r.line(format!(
        "  checks: {} campaigns re-run in-process",
        CHECKS.min(done.len())
    ));
    Ok(r)
}

/// Re-runs campaigns in-process through their layer calls: spec parse,
/// `run_campaign`, and the baseline arm replayed as `Campaign::run` plus
/// `Simulation::run` with the same rep seeds.
fn replay(
    t: &mut Tracer,
    seed: u64,
    done: &[Done],
) -> Result<(Vec<f64>, u64, u64, Vec<String>), String> {
    let (mut campaign_s, mut events, mut jobs, mut wrong) = (Vec::new(), 0u64, 0u64, Vec::new());
    for d in done {
        let pairs = spec_pairs(seed, d.index);
        let spec = t.span("core.scenario.parse", |_| {
            ScenarioSpec::parse(&pairs, REP_CAP).inspect(|s| drop(s.canonical()))
        });
        let spec = spec.map_err(|e| e.to_string())?;
        let started = Instant::now();
        let result = t.span("core.scenario.run_campaign", |_| {
            run_campaign(&spec, |_, _| {})
        });
        campaign_s.push(started.elapsed().as_secs_f64());
        let body = render_result(&result.map_err(|e| e.to_string())?);
        if d.resp.as_ref().map(|r| r.body_digest) != Some(digest(body.as_bytes())) {
            wrong.push(format!(
                "{}: body differs from run_campaign",
                target(&pairs)
            ));
        }
        let root = simrng::Rng::seed_from(spec.seed);
        for rep in 0..spec.reps {
            let rep_seed = root.fork(u64::from(rep)).next_u64();
            let mut config = faultsim::FaultConfig::delta_scaled(SIM_SCALE);
            config.emit_logs = false;
            config.seed = rep_seed;
            let campaign = t.span("faultsim.campaign", |_| {
                faultsim::Campaign::new(config).run()
            });
            events += campaign.ground_truth.len() as u64;
            let cluster = clustersim::Cluster::new(campaign.config.spec);
            let outcome = t.span("slurmsim.run", |_| {
                slurmsim::Simulation::new(
                    &cluster,
                    slurmsim::WorkloadConfig::delta_scaled(SIM_SCALE),
                    rep_seed,
                )
                .with_policy(spec.baseline().sched)
                .run(&campaign.ground_truth, &campaign.holds)
            });
            jobs += outcome.jobs.len() as u64;
        }
    }
    Ok((campaign_s, events, jobs, wrong))
}

pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let next = AtomicUsize::new(0);
    let seg = segment(ctx, &next, ctx.seconds as f64 / 2.0)?;
    tally(&mut r, &seg.done);
    let sample: Vec<Done> = seg
        .done
        .into_iter()
        .filter(|d| d.resp.is_some())
        .take(12)
        .collect();

    let mut t = Tracer::new(true);
    let started = Instant::now();
    let (campaign_s, _, _, _) = replay(&mut Tracer::new(false), ctx.seed, &sample)?;
    let untraced_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (_, events, jobs, wrong) = t.span("measure", |t| replay(t, ctx.seed, &sample))?;
    let traced_s = started.elapsed().as_secs_f64();
    r.attempted += 2 * sample.len() as u64;
    for w in wrong {
        r.wrong(w);
    }
    let wait: Vec<f64> = sample
        .iter()
        .zip(&campaign_s)
        .map(|(d, c)| d.latency.as_secs_f64() * 1e3 - c * 1e3)
        .collect();
    let n = sample.len().max(1) as f64;
    let m = &mut r.metrics;
    m.insert(
        "core.scenario.parse_us",
        t.total("core.scenario.parse").0 * 1e6 / n,
    );
    m.insert("faultsim.campaign_s", t.total("faultsim.campaign").0);
    m.insert("faultsim.events", events as f64);
    m.insert("slurmsim.run_s", t.total("slurmsim.run").0);
    m.insert("slurmsim.jobs", jobs as f64);
    m.insert("servd.whatif.wait_ms", median(&wait));
    r.line(format!("{} campaigns replayed in-process", sample.len()));
    finish_trace(ctx, "whatif_cold", &t, untraced_s, traced_s, &mut r)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_distinct_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let spec = ScenarioSpec::parse(&spec_pairs(7, i), REP_CAP).expect("valid spec");
            assert_eq!(spec.reps, 2);
            assert!(seen.insert(spec.canonical()), "duplicate spec {i}");
        }
    }

    #[test]
    fn a_wrong_campaign_seed_is_reported() {
        let body = expected(&spec_pairs(7, 0)).expect("campaign runs");
        let resp = |body: &str| Resp {
            status: 200,
            cache_hit: Some(false),
            body_len: body.len(),
            body_digest: digest(body.as_bytes()),
            body: None,
        };
        assert_eq!(check(7, 0, &resp(&body)), None);
        // The same spec with another campaign seed renders other numbers.
        let mut pairs = spec_pairs(7, 0);
        pairs[0].1 = "12345".to_owned();
        let wrong_seed = expected(&pairs).expect("campaign runs");
        assert!(check(7, 0, &resp(&wrong_seed)).is_some());
    }
}
