//! The crawl benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path crawlbench/Cargo.toml -- \
//!     --workload focus_default --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each repetition builds a Full cycling world from a seed derived from
//! `--seed`, trains the classifier, crawls through the public
//! `CrawlSession` API and checks the outputs. Repetitions continue until
//! `--seconds` have passed and each of the run's [`WORLDS`] worlds was
//! crawled. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repetitions and prints the per-layer
//! metrics plus the tracing overhead. The last stdout line is one JSON
//! object. See README.md.

mod replay;
mod stats;
mod trace;
mod workload;

use stats::{median, percentile};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Rep, Workload, APPLETS};

/// Worlds a run crawls, each built from its own seed derived from
/// `--seed`. Harvest differs by about ±15% from one world to the next,
/// so a run's figures average over several.
const WORLDS: usize = 6;

/// Untraced/traced pairs a traced run makes at least.
const MIN_TRACED_PAIRS: usize = 2;

/// The seed of world `i` of a run with `--seed seed`: the runs of
/// distinct seeds crawl disjoint sets of worlds.
fn world_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(WORLDS as u64).wrapping_add(i as u64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks from `/proc/stat`, when readable: steal
/// is time the hypervisor ran something else while this VM wanted CPU.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Mean over worlds of the per-world mean: for figures a world fixes
/// (harvest, failure ratio), which vary between worlds, not between
/// repetitions of one world.
fn world_mean(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut by: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for r in reps {
        by.entry(r.world).or_default().push(f(r));
    }
    let means: Vec<f64> = by
        .values()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    means.iter().sum::<f64>() / means.len().max(1) as f64
}

/// A note with the spread of a per-repetition figure.
fn spread_note(name: &str, reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> String {
    let xs: Vec<f64> = reps.iter().map(|r| f(r)).collect();
    match stats::quartiles(&xs) {
        Some((q1, q3)) => format!(
            "spread {name}: median {:.6} q1 {q1:.6} q3 {q3:.6} over {} reps",
            median(&xs),
            xs.len()
        ),
        None => format!("spread {name}: one rep"),
    }
}

/// Monitor latency (ms, from each query's due time): p50 and p90 of
/// every repetition's queries pooled. Notes the sample count, the
/// highest percentile it supports, how late the generator ran, and the
/// spread of the per-repetition percentiles.
fn monitor_latency(reps: &[&Rep], notes: &mut Vec<String>) -> (f64, f64) {
    let (mut all, mut p50, mut p90, mut late) = (Vec::new(), Vec::new(), Vec::new(), 0.0f64);
    for r in reps {
        let times: Vec<_> = r.queries.iter().map(|q| q.times).collect();
        let (lat, g) = stats::open_loop_latencies(&times);
        let lat: Vec<f64> = lat.into_iter().map(|s| s * 1e3).collect();
        p50.push(percentile(&lat, 50.0).unwrap_or(f64::INFINITY));
        p90.push(percentile(&lat, 90.0).unwrap_or(f64::INFINITY));
        all.extend(lat);
        late = late.max(g);
    }
    let n = all.len();
    let top = stats::highest_supported_percentile(n);
    notes.push(format!(
        "monitor: {n} queries; highest percentile with >= {} samples beyond it: {}; generator ran up to {:.3} ms late",
        stats::MIN_TAIL,
        top.map_or("none".to_owned(), |p| format!("p{p} = {:.4} ms", percentile(&all, p).unwrap_or(0.0))),
        late * 1e3,
    ));
    for (name, xs) in [("monitor_p50_ms", &p50), ("monitor_p90_ms", &p90)] {
        if let Some((q1, q3)) = stats::quartiles(xs) {
            notes.push(format!(
                "spread {name} per rep: median {:.6} q1 {q1:.6} q3 {q3:.6} over {} reps",
                median(xs),
                xs.len()
            ));
        }
    }
    if top.is_none_or(|p| p < 90.0) {
        notes.push("monitor: WARNING fewer than 100 queries; p90 has < 10 beyond it".to_owned());
    }
    (
        percentile(&all, 50.0).unwrap_or(f64::INFINITY),
        percentile(&all, 90.0).unwrap_or(f64::INFINITY),
    )
}

fn cpu_us_per_page(r: &Rep) -> f64 {
    r.cpu_s * 1e6 / r.stats.attempts as f64
}

fn fail_ratio(r: &Rep) -> f64 {
    r.stats.failures as f64 / r.stats.attempts as f64
}

fn end_to_end(reps: &[&Rep], notes: &mut Vec<String>) -> Metrics {
    let (p50, p90) = monitor_latency(reps, notes);
    // Printed, not gated: on a 2-vCPU VM whose host steals CPU in
    // minutes-long waves, their spread over ten seeds reached 0.29 and
    // 0.42 of the median, past the largest bound a metric may have.
    notes.push(format!("monitor_p50_ms = {p50} ms (not gated)"));
    notes.push(format!("monitor_p90_ms = {p90} ms (not gated)"));
    notes.push(spread_note("pages_per_sec", reps, Rep::pages_per_sec));
    notes.push(spread_note("cpu_us_per_page", reps, cpu_us_per_page));
    notes.push(spread_note("harvest", reps, |r| r.stats.mean_harvest()));
    notes.push(spread_note("setup_s", reps, |r| r.setup_s));
    vec![
        ("pages_per_sec".into(), med(reps, Rep::pages_per_sec), "1/s"),
        ("cpu_us_per_page".into(), med(reps, cpu_us_per_page), "us"),
        (
            "harvest".into(),
            world_mean(reps, |r| r.stats.mean_harvest()),
            "R",
        ),
        (
            "fetch_fail_ratio".into(),
            world_mean(reps, fail_ratio),
            "ratio",
        ),
        ("setup_s".into(), med(reps, |r| r.setup_s), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

fn per_layer(plain: &[&Rep], traced: &[&Rep], notes: &mut Vec<String>) -> Metrics {
    fn t(r: &Rep) -> &workload::Traced {
        r.traced.as_ref().expect("traced rep")
    }
    let pages = |r: &Rep| r.stats.attempts as f64;
    let mut m: Metrics = Vec::new();
    let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_owned(), v, unit));

    // webgraph fetch, pooled spans of every traced rep.
    let spans: Vec<&trace::Span> = traced.iter().flat_map(|r| t(r).spans.iter()).collect();
    let dur_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    };
    let fetch = dur_us(trace::name::FETCH);
    push(
        "fetch.calls",
        med(traced, |r| {
            trace::durations(&t(r).spans, trace::name::FETCH).len() as f64
        }),
        "count",
    );
    push(
        "fetch.p50_us",
        percentile(&fetch, 50.0).unwrap_or(0.0),
        "us",
    );
    push(
        "fetch.p99_us",
        percentile(&fetch, 99.0).unwrap_or(0.0),
        "us",
    );
    push(
        "fetch.in_flight_mean",
        med(traced, |r| {
            trace::durations(&t(r).spans, trace::name::FETCH)
                .iter()
                .sum::<f64>()
                / 1e9
                / r.wall_s
        }),
        "fetches",
    );
    // fetch_pool + session: fetch end to PageClassified.
    let turn = dur_us(trace::name::TURNAROUND);
    push(
        "page.turnaround_p50_us",
        percentile(&turn, 50.0).unwrap_or(0.0),
        "us",
    );
    push(
        "page.turnaround_p99_us",
        percentile(&turn, 99.0).unwrap_or(0.0),
        "us",
    );
    // classifier::compiled replay.
    push(
        "classify.us_per_page",
        med(traced, |r| t(r).classify_us),
        "us",
    );
    // frontier over btree replay.
    push(
        "frontier.claim_us_per_page",
        med(traced, |r| t(r).frontier.claim_us),
        "us",
    );
    push(
        "frontier.mark_done_us_per_page",
        med(traced, |r| t(r).frontier.mark_done_us),
        "us",
    );
    push(
        "frontier.link_insert_us_per_page",
        med(traced, |r| t(r).frontier.link_insert_us),
        "us",
    );
    push(
        "frontier.upsert_us_per_page",
        med(traced, |r| t(r).frontier.upsert_us),
        "us",
    );
    push(
        "frontier.reads_per_page",
        med(traced, |r| t(r).frontier.reads_per_page),
        "reads",
    );
    // buffer pool, from the session's io_stats (untraced reps too).
    let all: Vec<&Rep> = plain.iter().chain(traced).copied().collect();
    push(
        "store.logical_reads_per_page",
        med(&all, |r| r.io.logical_reads as f64 / pages(r)),
        "reads",
    );
    push(
        "store.physical_reads_per_page",
        med(&all, |r| r.io.physical_reads as f64 / pages(r)),
        "reads",
    );
    push(
        "store.evictions_per_page",
        med(&all, |r| r.io.evictions as f64 / pages(r)),
        "frames",
    );
    push("store.hit_ratio", med(&all, |r| r.io.hit_ratio()), "ratio");
    // distiller: in-crawl passes; pauses include the final forced pass.
    push("distill.passes", med(&all, |r| r.distills as f64), "count");
    let mut pauses: Vec<f64> = dur_us(trace::name::DISTILL)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    pauses.extend(traced.iter().map(|r| t(r).final_pass_ms));
    push(
        "distill.pause_p50_ms",
        percentile(&pauses, 50.0).unwrap_or(0.0),
        "ms",
    );
    push(
        "distill.pause_max_ms",
        percentile(&pauses, 100.0).unwrap_or(0.0),
        "ms",
    );
    push(
        "distill.final_pass_ms",
        med(traced, |r| t(r).final_pass_ms),
        "ms",
    );
    // sql + monitor, pooled over every rep's queries.
    let queries: Vec<&workload::Query> = all.iter().flat_map(|r| r.queries.iter()).collect();
    let ms = |f: &dyn Fn(&workload::Query) -> f64| -> Vec<f64> {
        queries.iter().map(|q| f(q) * 1e3).collect()
    };
    let wait = ms(&|q| q.lock_wait);
    push(
        "monitor.lock_wait_p50_ms",
        percentile(&wait, 50.0).unwrap_or(0.0),
        "ms",
    );
    push(
        "monitor.lock_wait_p90_ms",
        percentile(&wait, 90.0).unwrap_or(0.0),
        "ms",
    );
    for (i, (applet, _)) in APPLETS.iter().enumerate() {
        let exec: Vec<f64> = queries
            .iter()
            .filter(|q| q.applet == i)
            .map(|q| q.exec * 1e3)
            .collect();
        push(
            &format!("monitor.{applet}.exec_p50_ms"),
            percentile(&exec, 50.0).unwrap_or(0.0),
            "ms",
        );
    }
    let nq = queries.len().max(1) as f64;
    push(
        "monitor.reads_per_query",
        queries.iter().map(|q| q.reads as f64).sum::<f64>() / nq,
        "reads",
    );
    push(
        "monitor.plan_cache_hit_ratio",
        queries.iter().filter(|q| q.plan_hit).count() as f64 / nq,
        "ratio",
    );
    // wal: file sizes after join.
    push(
        "wal.bytes_per_page",
        med(&all, |r| r.wal_bytes as f64 / pages(r)),
        "bytes",
    );
    push(
        "data.bytes_per_page",
        med(&all, |r| r.data_bytes as f64 / pages(r)),
        "bytes",
    );
    // health, from events.
    push("health.retries", med(&all, |r| r.retries as f64), "count");
    push(
        "health.quarantines",
        med(&all, |r| r.quarantines as f64),
        "count",
    );
    // Tracing overhead: untraced vs traced pages/sec.
    let overhead = (med(plain, Rep::pages_per_sec) / med(traced, Rep::pages_per_sec) - 1.0) * 100.0;
    push("trace.overhead_pct", overhead, "%");

    let crawls: Vec<&[trace::Span]> = traced.iter().map(|r| t(r).spans.as_slice()).collect();
    for (name, ns, n) in trace::self_time_by_name(&crawls) {
        notes.push(format!(
            "self time {name}: {:.3} ms total over {n} spans, {:.2} us per page",
            ns as f64 / 1e6,
            ns as f64 / 1e3 / traced.iter().map(|r| pages(r)).sum::<f64>()
        ));
    }
    m
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(n, v, u)| {
            // JSON has no infinity; -1 marks a figure with no finite value.
            let v = if v.is_finite() { *v } else { -1.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crawlbench: {e}");
            eprintln!(
                "usage: crawlbench --workload focus_default|pipeline_wan|monitored_durable \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let steal0 = cpu_steal();
    let mut reps: Vec<Rep> = Vec::new();
    let run = |world: usize, traced: bool, reps: &mut Vec<Rep>| {
        let idx = reps.len();
        let rep = workload::run_rep(
            args.workload,
            world_seed(args.seed, world),
            world,
            idx,
            traced,
        );
        eprintln!(
            "rep {idx} world {world}{}: {:.1} pages/s, setup {:.2} s, {} attempts, {} queries{}",
            if traced { " (traced)" } else { "" },
            rep.pages_per_sec(),
            rep.setup_s,
            rep.stats.attempts,
            rep.queries.len(),
            if rep.failed_checks.is_empty() {
                String::new()
            } else {
                format!(", FAILED {:?}", rep.failed_checks)
            },
        );
        reps.push(rep);
    };
    let mut round = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64() >= args.seconds;
        if args.trace {
            // Untraced/traced pairs on the same world give the overhead.
            if round >= MIN_TRACED_PAIRS && elapsed {
                break;
            }
            run(round % WORLDS, false, &mut reps);
            run(round % WORLDS, true, &mut reps);
        } else {
            if round >= WORLDS && elapsed {
                break;
            }
            run(round % WORLDS, false, &mut reps);
        }
        round += 1;
    }

    let mut notes = Vec::new();
    if let (Some(a), Some(b)) = (steal0, cpu_steal()) {
        let (steal, total) = (b.0 - a.0, (b.1 - a.1).max(1));
        notes.push(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run ({} of {} ticks)",
            steal as f64 * 100.0 / total as f64,
            steal,
            total
        ));
    }
    let (plain, traced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced.is_none());
    let metrics = if args.trace {
        let last = traced.last().expect("a traced run makes traced reps");
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}.spans.tsv",
                args.workload.name(),
                args.seed
            ));
        match trace::write_spans(&out, &last.traced.as_ref().expect("traced").spans) {
            Ok(()) => notes.push(format!("spans of the last traced rep: {}", out.display())),
            Err(e) => notes.push(format!("could not write spans to {}: {e}", out.display())),
        }
        per_layer(&plain, &traced, &mut notes)
    } else {
        end_to_end(&plain, &mut notes)
    };

    let failed_reps = reps.iter().filter(|r| !r.failed_checks.is_empty()).count();
    let queries: usize = reps.iter().map(|r| r.queries.len()).sum();
    let failed_queries = reps
        .iter()
        .flat_map(|r| &r.queries)
        .filter(|q| q.times.done.is_none())
        .count();
    for r in &reps {
        for f in &r.failed_checks {
            notes.push(format!("CHECK FAILED: {f}"));
        }
    }
    println!(
        "workload {} seed {} reps {}",
        args.workload.name(),
        args.seed,
        reps.len()
    );
    for n in &notes {
        println!("{n}");
    }
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed_reps == 0 && failed_queries == 0,
        reps.len() + queries,
        failed_reps + failed_queries,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
