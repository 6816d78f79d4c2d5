//! `studybench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload analyze_full|serve_mix|ingest_live|whatif_cold \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. It builds `delta_cli` and
//! `delta_serve` from that checkout, generates (once) and verifies the
//! scale-1 study corpus, runs one workload against the program, checks
//! every output, and prints a human-readable report followed by one JSON
//! line. With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` the run repeats the workload's layer calls in-process with
//! spans around each, and the JSON carries the per-layer metrics.
//! See `studybench/README.md` for why each workload exists.

mod analyze;
mod client;
mod corpus;
mod ingest;
mod serve;
mod sys;
mod tracer;
mod util;
mod whatif;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use util::{json_num, json_str, median, quartiles};

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload never calls reads 0 there.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("hpclog.parse_s", "s"),
    ("hpclog.lines", "count"),
    ("hpclog.extract_s", "s"),
    ("hpclog.events", "count"),
    ("core.csvio.parse_s", "s"),
    ("core.csvio.rows", "count"),
    ("core.pipeline.coalesce_s", "s"),
    ("core.pipeline.merge_ratio", "ratio"),
    ("core.pipeline.assemble_s", "s"),
    ("core.report.render_s", "s"),
    ("servd.store.build_s", "s"),
    ("servd.http.parse_us", "us"),
    ("servd.router.self_us", "us"),
    ("servd.cache.hit_ratio", "ratio"),
    ("servd.store.errors_us", "us"),
    ("servd.store.rollup_us", "us"),
    ("servd.store.mtbe_us", "us"),
    ("servd.store.bytes_per_req", "B"),
    ("servd.http.write_us", "us"),
    ("servd.server.wire_us", "us"),
    ("servd.ingest.offer_us", "us"),
    ("servd.ingest.shed_ratio", "ratio"),
    ("core.incremental.push_s_per_mib", "s/MiB"),
    ("core.incremental.materialize_s", "s"),
    ("core.checkpoint.encode_s", "s"),
    ("core.checkpoint.bytes", "B"),
    ("servd.ingest.persist_s", "s"),
    ("servd.ingest.publishes", "count"),
    ("core.scenario.parse_us", "us"),
    ("faultsim.campaign_s", "s"),
    ("faultsim.events", "count"),
    ("slurmsim.run_s", "s"),
    ("slurmsim.jobs", "count"),
    ("servd.whatif.wait_ms", "ms"),
];

/// The end-to-end metrics every untraced run reports. What each means on
/// each workload is tabled in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Everything a run needs to know about its checkout.
#[derive(Debug)]
pub struct Ctx {
    pub data: PathBuf,
    pub delta_cli: PathBuf,
    pub delta_serve: PathBuf,
    pub corpus: corpus::Corpus,
    pub seed: u64,
    pub seconds: u64,
}

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not pass, each described.
    pub wrong: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a failed output check (also a failed operation).
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Prints `name unit: median (q1, q3, n)` over the run's samples.
    pub fn stat(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let (q1, q3) = quartiles(samples);
        self.lines.push(format!(
            "  {name:<22} {:>12.4} {unit:<6} (q1 {q1:.4}, q3 {q3:.4}, n {})",
            median(samples),
            samples.len()
        ));
    }

    fn json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = num()?,
            "--seconds" => out.seconds = num()?.max(1),
            "--trace" => out.trace = num()? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(out)
}

/// Builds the program's binaries from the checkout at `root`.
fn build_program(root: &Path) -> Result<(PathBuf, PathBuf), String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} is not a checkout of the program",
            root.display()
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "-p",
            "delta-gpu-resilience",
            "--bin",
            "delta_cli",
            "--bin",
            "delta_serve",
        ])
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the program failed: {status}"));
    }
    let bin = target.join("release");
    Ok((bin.join("delta_cli"), bin.join("delta_serve")))
}

fn run(args: &Args) -> Result<Report, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let (delta_cli, delta_serve) = build_program(&root)?;
    let data = root.join(".bench_data");
    std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    let corpus = corpus::ensure(&data, &delta_cli)?;
    let ctx = Ctx {
        data,
        delta_cli,
        delta_serve,
        corpus,
        seed: args.seed,
        seconds: args.seconds,
    };
    match (args.workload.as_str(), args.trace) {
        ("analyze_full", false) => analyze::run(&ctx),
        ("analyze_full", true) => analyze::traced(&ctx),
        ("serve_mix", false) => serve::run(&ctx),
        ("serve_mix", true) => serve::traced(&ctx),
        ("ingest_live", false) => ingest::run(&ctx),
        ("ingest_live", true) => ingest::traced(&ctx),
        ("whatif_cold", false) => whatif::run(&ctx),
        ("whatif_cold", true) => whatif::traced(&ctx),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// Writes a traced run's spans and prints its self-time table and the
/// tracing overhead (the same in-process pass timed with spans off and
/// on).
pub fn finish_trace(
    ctx: &Ctx,
    workload: &str,
    t: &tracer::Tracer,
    untraced_s: f64,
    traced_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let path = ctx.data.join(format!("trace-{workload}-{}.json", ctx.seed));
    std::fs::write(&path, t.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    report.line(format!(
        "spans written to {} (Chrome trace-event JSON)",
        path.display()
    ));
    report.line(format!("self time per layer, {workload}:"));
    for l in t.self_time_table().lines() {
        report.line(l.to_owned());
    }
    report.line(format!(
        "tracing overhead: {traced_s:.4} s traced vs {untraced_s:.4} s untraced ({:+.2}%)",
        100.0 * (traced_s / untraced_s - 1.0)
    ));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-corpus") {
        return match serve::serve_corpus(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("studybench serve-corpus: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("studybench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!(
                "studybench {} seed {} seconds {} trace {}",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            for l in &report.lines {
                println!("{l}");
            }
            for w in &report.wrong {
                println!("CHECK FAILED: {w}");
            }
            let names = if args.trace {
                LAYER_METRICS
            } else {
                END_TO_END
            };
            println!("{}", report.json(names));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("studybench: {e}");
            ExitCode::FAILURE
        }
    }
}
