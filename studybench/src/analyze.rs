//! `analyze_full`: the analyst's batch run, `delta-cli analyze` over every
//! day file plus the job and outage exports. hpclog, csvio and the
//! Stage I–III pipeline do nearly all the work; servd does none.

use crate::corpus::{self, Renders, CHILD_LIMIT};
use crate::sys::Proc;
use crate::tracer::Tracer;
use crate::util::{median, sorted};
use crate::{finish_trace, Ctx, Report};
use std::process::Command;
use std::time::Instant;

/// Start-up probes per run: `delta-cli analyze` over one day file.
const SETUP_PROBES: usize = 9;

/// Checks the CLI's stdout carries each reference surface verbatim.
pub fn check_output(stdout: &str, reference: &Renders) -> Vec<String> {
    [
        ("Table I", &reference.table1),
        ("Table II", &reference.table2),
        ("Table III", &reference.table3),
        ("Figure 2", &reference.fig2),
    ]
    .iter()
    .filter(|(title, body)| !stdout.contains(&format!("=== {title} ===\n{body}")))
    .map(|(title, _)| format!("analyze output: {title} differs from the in-process render"))
    .collect()
}

fn analyze_once(ctx: &Ctx, args: &[String]) -> Result<(f64, crate::sys::Exit), String> {
    let mut p = Proc::spawn(Command::new(&ctx.delta_cli).args(args))?;
    let exit = p.wait(CHILD_LIMIT)?;
    Ok((exit.at.duration_since(p.started).as_secs_f64(), exit))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let first_day = ctx.corpus.logs.first().ok_or("corpus has no day files")?;
    let probe_args = vec!["analyze".to_owned(), first_day.display().to_string()];
    let mut setup = Vec::new();
    for _ in 0..SETUP_PROBES {
        r.attempted += 1;
        let (secs, exit) = analyze_once(ctx, &probe_args)?;
        if !exit.success {
            r.wrong("start-up probe exited unsuccessfully".to_owned());
        }
        setup.push(secs);
    }

    let args = ctx.corpus.analyze_args();
    let (mut walls, mut rss, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs() < ctx.seconds {
        r.attempted += 1;
        let (secs, exit) = analyze_once(ctx, &args)?;
        if !exit.success {
            r.wrong("delta-cli analyze exited unsuccessfully".to_owned());
        }
        walls.push(secs);
        rss.push(exit.peak_rss_mib);
        outputs.push(exit.stdout);
    }
    let span = started.elapsed().as_secs_f64();

    let reference = Renders::reference(&ctx.data, &ctx.corpus)?;
    for out in &outputs {
        for w in check_output(out, &reference) {
            r.wrong(w);
        }
    }

    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    r.metrics.insert("setup_s", median(&setup));
    r.metrics
        .insert("peak_rss_mib", sorted(&rss).last().copied().unwrap_or(0.0));
    r.metrics.insert("p50_ms", median(&ms));
    r.metrics
        .insert("tail_ms", sorted(&ms).last().copied().unwrap_or(0.0));
    r.metrics.insert("rate_per_s", walls.len() as f64 / span);
    r.line(format!(
        "corpus: {} day files, {:.1} MiB; {} analyses in {span:.2} s",
        ctx.corpus.logs.len(),
        ctx.corpus.bytes as f64 / (1 << 20) as f64,
        walls.len()
    ));
    r.stat("setup_s", "s", &setup);
    r.stat("analyze_s", "s", &walls);
    r.stat("peak_rss_mib", "MiB", &rss);
    r.line(format!(
        "  checks: {} analyses compared with the in-process render ({} failed)",
        outputs.len(),
        r.wrong.len()
    ));
    Ok(r)
}

/// The same analysis in-process, once with spans off and once on,
/// through each layer's public calls.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let reference = Renders::reference(&ctx.data, &ctx.corpus)?;
    let mut walls = [0.0; 2];
    let mut t = Tracer::new(false);
    for (pass, wall) in walls.iter_mut().enumerate() {
        t = Tracer::new(pass == 1);
        let started = Instant::now();
        let (renders, counts) = t.span("measure", |t| -> Result<_, String> {
            let loaded = corpus::load(&ctx.corpus, t)?;
            let (report, counts) = corpus::analyze(&loaded, t);
            drop(loaded);
            Ok((Renders::of(&report, t), counts))
        })?;
        *wall = started.elapsed().as_secs_f64();
        r.attempted += 1;
        if renders != reference {
            r.wrong("in-process layer calls render differently from Pipeline::run".to_owned());
        }
        if pass == 1 {
            let m = &mut r.metrics;
            let coalesce = t.total("core.pipeline.coalesce").0;
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
            m.insert("core.report.render_s", t.total("core.report.render").0);
        }
    }
    finish_trace(ctx, "analyze_full", &t, walls[0], walls[1], &mut r)?;
    Ok(r)
}
