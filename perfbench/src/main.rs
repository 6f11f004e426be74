//! The QPRAC figure-pipeline benchmark.
//!
//! ```text
//! qprac-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --serve-bin <path> --work-dir <dir> --result <file>
//!                 [--trace-out <file>]
//! ```
//!
//! `perfbench/run.py` builds this binary and `qprac-serve`, then runs
//! it; see `perfbench/README.md`. With `--trace 0` a run sets the
//! workload up and repeats untraced passes for `--seconds`, reporting
//! the end-to-end metrics. With `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics, the self-time
//! table and the tracing overhead. Every pass's outputs are checked;
//! the result JSON goes to `--result`, the human report to stderr, and
//! the exit code is 1 when any check failed.

mod digest;
mod host;
mod model;
mod seed;
mod shards;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use qprac_serve::ShardMap;

use crate::stats::{median, tail, TAIL_BEYOND};
use crate::traced::{Remote, TracedPass};
use crate::workloads::{PassResult, Prepared, Workload};

/// A run never measures longer than this, whatever `--seconds` says
/// (the whole run must end within 180 s).
const MAX_MEASURE_S: f64 = 120.0;
/// Traced runs alternate at most this many untraced/traced pairs, so
/// the in-memory spans stay small.
const MAX_TRACED_PAIRS: usize = 10;

const USAGE: &str = "usage: qprac-perfbench --workload <sweep_cold|sweep_warm|sweep_cluster_warm|abo_storm> \
--seed <n> --seconds <s> --trace <0|1> --serve-bin <path> --work-dir <dir> --result <file> [--trace-out <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work: PathBuf,
    result: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(name, value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        serve_bin: take("serve-bin")?.into(),
        work: take("work-dir")?.into(),
        result: take("result")?.into(),
        trace_out: kv.remove("trace-out").map(PathBuf::from),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Extra human-readable report sections.
    report: String,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    fn count_pass(&mut self, cells: usize, problems: &[String]) {
        let cells = cells.max(1) as u64;
        self.attempted += cells;
        if !problems.is_empty() {
            self.failed += cells;
            self.problems.extend(problems.iter().cloned());
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Keep passing while the next pass is predicted to end inside the
/// window (always at least `min` passes).
fn more_passes(done: usize, min: usize, elapsed: f64, typical: f64, seconds: f64) -> bool {
    done < min || (elapsed + typical <= seconds && elapsed < MAX_MEASURE_S)
}

fn untraced(prep: &mut Prepared, seconds: f64, out: &mut Outcome) {
    let w = prep.workload;
    let start = Instant::now();
    // Peak memory through the first pass, as one `run_all` would reach:
    // over several passes per-thread heap arenas fragment differently
    // from run to run, and the process's peak moved by 20%.
    let mut peak_rss = None;
    let mut passes: Vec<PassResult> = Vec::new();
    loop {
        let p = prep.run_pass();
        peak_rss.get_or_insert_with(host::peak_rss_mb);
        out.count_pass(p.unique, &p.problems);
        passes.push(p);
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let elapsed = start.elapsed().as_secs_f64();
        if !more_passes(
            passes.len(),
            w.min_passes(),
            elapsed,
            median(&walls),
            seconds,
        ) {
            break;
        }
    }
    let n = passes.len();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let setup_note = if w.cold() {
        format!(
            "median of {} population builds, {} before each pass",
            workloads::SETUP_REPS,
            workloads::SETUP_REPS
        )
    } else if w == Workload::SweepWarm {
        "cache pre-fill (child process)".into()
    } else {
        "shard spawn + cluster warm-up (child process)".into()
    };
    out.put("setup_s", prep.setup_s(), "s", setup_note);
    out.put(
        "pass_s",
        median(&walls),
        "s",
        format!("median of {n} passes"),
    );
    out.put(
        "cpu_s",
        median(&cpus),
        "s",
        if w == Workload::SweepClusterWarm {
            "median per pass, benchmark + shard processes"
        } else {
            "median per pass"
        },
    );
    let timed: usize = passes.iter().map(|p| p.cells_timed).sum();
    let (cell_p50, cell_tail, tail_note) = if w.cold() {
        // Each cell's median over the passes, then the median and tail
        // over the cells: a cell slowed by the host in one pass moves
        // neither.
        let rows: Vec<Vec<f64>> = passes.iter().map(|p| p.cell_ms.clone()).collect();
        let cells = stats::column_medians(&rows);
        let t = tail(&cells, TAIL_BEYOND);
        let note = format!(
            "{} of the per-cell medians over {n} passes",
            t.map_or("-".into(), |t| t.label())
        );
        (median(&cells), t.map_or(0.0, |t| t.value), note)
    } else {
        // Per-pass median and tail (each over that pass's cells), median
        // across passes: a preempted cell moves one pass's tail, not the
        // run's.
        let p50s: Vec<f64> = passes.iter().map(|p| p.cell_p50_ms).collect();
        let tails: Vec<_> = passes.iter().filter_map(|p| p.cell_tail).collect();
        let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        let note = format!(
            "median over {} passes of the {}",
            tails.len(),
            tails.first().map_or("-".into(), |t| t.label())
        );
        (median(&p50s), median(&tail_values), note)
    };
    out.put(
        "cell_p50_ms",
        cell_p50,
        "ms",
        format!("{}; {timed} samples", w.cell_timing()),
    );
    out.put("cell_tail_ms", cell_tail, "ms", tail_note);
    out.put(
        "peak_rss_mb",
        peak_rss.unwrap_or_default(),
        "MiB",
        "benchmark process, peak from start through its first pass",
    );

    let shown: Vec<String> = walls.iter().take(12).map(|w| format!("{w:.4}")).collect();
    let _ = writeln!(
        out.report,
        "pass walls (s): {}{}",
        shown.join(" "),
        if n > shown.len() { " ..." } else { "" }
    );
    let _ = writeln!(
        out.report,
        "peak RSS (MiB): {:.2} through the first pass, {:.2} through the run",
        peak_rss.unwrap_or_default(),
        host::peak_rss_mb()
    );
    let retries: u64 = passes.iter().map(|p| p.retries).sum();
    let fallbacks: u64 = passes.iter().map(|p| p.fallbacks).sum();
    let last = passes.last().expect("at least one pass");
    let _ = writeln!(
        out.report,
        "outputs: {} CSV(s), digest {:016x}{}",
        last.csvs,
        last.digest,
        if w == Workload::SweepClusterWarm {
            format!(", remote retries {retries}, local fallbacks {fallbacks}")
        } else {
            String::new()
        }
    );
    if w == Workload::AboStorm {
        out.report.push_str(&reference_table(prep));
    }
}

/// Geomean normalized performance and mean alerts/tREFI per variant,
/// from the last pass's `fig14.csv`/`fig15.csv`.
fn figure_summary(prep: &Prepared) -> Option<Vec<(String, f64, f64)>> {
    let read = |name: &str| std::fs::read_to_string(prep.results.join(name)).ok();
    let (f14, f15) = (read("fig14.csv")?, read("fig15.csv")?);
    let columns = |text: &str| -> BTreeMap<String, Vec<f64>> {
        let mut lines = text.lines();
        let header: Vec<String> = lines
            .next()
            .unwrap_or_default()
            .split(',')
            .map(str::to_string)
            .collect();
        let mut cols: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for line in lines {
            for (h, v) in header.iter().zip(line.split(',')) {
                if let Ok(x) = v.parse::<f64>() {
                    cols.entry(h.clone()).or_default().push(x);
                }
            }
        }
        cols
    };
    let (perf, alerts) = (columns(&f14), columns(&f15));
    let out = ["noop", "qprac", "proactive", "proactive_ea", "ideal"]
        .iter()
        .filter_map(|v| {
            let p = perf.get(*v)?;
            let a = alerts.get(*v)?;
            Some((
                v.to_string(),
                sim::geomean(p.iter().copied()),
                a.iter().sum::<f64>() / a.len().max(1) as f64,
            ))
        })
        .collect::<Vec<_>>();
    (!out.is_empty()).then_some(out)
}

/// `abo_storm`'s modelled headline numbers next to the paper's.
fn reference_table(prep: &Prepared) -> String {
    let Some(rows) = figure_summary(prep) else {
        return "reference: fig14.csv/fig15.csv not found\n".into();
    };
    let paper = |v: &str| match v {
        "noop" => ("0.876 (12.4% slowdown)", "~1.1"),
        "qprac" => ("0.992 (0.8% slowdown)", "0.07"),
        "proactive" => ("1.000 (0%)", "~0"),
        _ => ("-", "-"),
    };
    let mut s = format!(
        "reference (informational, not gated): modelled at {} instructions/core, far shorter than \
         the paper's runs, and not validated against hardware\n{:<14} {:>10} {:>24} {:>14} {:>10}\n",
        prep.workload.instr(),
        "variant",
        "geomean",
        "paper",
        "alerts/tREFI",
        "paper"
    );
    for (v, perf, alerts) in rows {
        let (pp, pa) = paper(&v);
        let _ = writeln!(s, "{v:<14} {perf:>10.4} {pp:>24} {alerts:>14.4} {pa:>10}");
    }
    s
}

/// Scrape the cluster's merged `METRICS` snapshot.
fn scrape(prep: &Prepared) -> Option<qprac_obs::Snapshot> {
    let c = prep.cluster.as_ref()?;
    qprac_bench::scrape_cluster(&c.addrs()).ok()
}

fn traced_run(prep: &mut Prepared, seconds: f64, trace_out: Option<&PathBuf>, out: &mut Outcome) {
    let w = prep.workload;
    let map = ShardMap::from_list(&prep.shard_list());
    let remote = prep.cluster.as_ref().map(|_| Remote {
        map: &map,
        timeout: qprac_serve::timeout_from_env(),
    });
    let before = scrape(prep);
    let epoch = Instant::now();
    let mut untraced: Vec<PassResult> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    loop {
        let t_pair = Instant::now();
        let p = prep.run_pass();
        out.count_pass(p.unique, &p.problems);
        untraced.push(p);

        let cache = prep.begin_pass();
        let seed = prep.seed;
        let mut tp = traced::run(|| w.population(seed), &cache, remote.as_ref(), epoch);
        let (_, problems) = prep.finish_pass((w == Workload::AboStorm).then_some(tp.alerts));
        tp.problems.extend(problems);
        if let Some(first) = traced.first() {
            if first.modelled != tp.modelled {
                tp.problems
                    .push("modelled-work counts differ between passes".into());
            }
        }
        out.count_pass(tp.unique, &tp.problems);
        traced.push(tp);
        let pair = t_pair.elapsed().as_secs_f64();
        let elapsed = epoch.elapsed().as_secs_f64();
        if traced.len() >= MAX_TRACED_PAIRS || !more_passes(traced.len(), 1, elapsed, pair, seconds)
        {
            break;
        }
    }
    let after = scrape(prep);
    let n = traced.len() as f64;
    let last = traced.last().expect("at least one traced pass");
    let sum = |name: &str| -> (f64, f64) {
        traced.iter().fold((0.0, 0.0), |(d, c), tp| {
            let (dd, cc) = tp.total(name);
            (d + dd as f64, c + cc as f64)
        })
    };
    let per_pass_s = |name: &str| sum(name).0 / n / 1e9;
    let mean_us = |name: &str| {
        let (d, c) = sum(name);
        ratio(d, c) / 1e3
    };

    out.put(
        "runner.cells",
        last.cells as f64,
        "count",
        "requested cells per pass",
    );
    out.put(
        "runner.unique",
        last.unique as f64,
        "count",
        "unique cells per pass",
    );
    out.put(
        "runner.key_us",
        mean_us("runner.key"),
        "us",
        "mean Job::key",
    );
    out.put(
        "runner.emit_ms",
        per_pass_s("runner.emit") * 1e3,
        "ms",
        "emitters per pass",
    );
    out.put(
        "runcache.load_us",
        mean_us("runcache.load"),
        "us",
        "mean RunCache::load",
    );
    out.put(
        "runcache.store_ms",
        per_pass_s("runcache.store") * 1e3,
        "ms",
        "RunCache::store + gc per pass",
    );
    out.put(
        "runcache.hit_ratio",
        ratio(last.hits as f64, last.unique as f64),
        "ratio",
        "unique cells the run cache answered",
    );
    out.put(
        "codec.decode_us",
        mean_us("codec.decode"),
        "us",
        "mean decode_cell (probe)",
    );
    out.put(
        "codec.encode_us",
        mean_us("codec.encode"),
        "us",
        "mean encode_cell (probe)",
    );
    out.put(
        "codec.bytes",
        last.codec_bytes as f64,
        "bytes",
        "encoded bytes of all unique cells",
    );
    let (wl, mx, at) = (
        per_pass_s("sim.workload"),
        per_pass_s("sim.mix"),
        per_pass_s("sim.attack"),
    );
    out.put(
        "sim.workload_busy_s",
        wl,
        "s",
        "run_workload, summed over workers, per pass",
    );
    out.put(
        "sim.mix_busy_s",
        mx,
        "s",
        "run_mix, summed over workers, per pass",
    );
    out.put(
        "sim.attack_busy_s",
        at,
        "s",
        "run_bandwidth_attack, summed, per pass",
    );
    out.put(
        "sim.host_ns_per_instr",
        ratio((wl + mx) * 1e9, last.simulated.retired as f64),
        "ns/instr",
        "host ns per retired instruction of simulated cells",
    );
    out.put(
        "sim.host_ns_per_mem_cycle",
        ratio((wl + mx + at) * 1e9, last.simulated.mem_cycles as f64),
        "ns/cycle",
        "host ns per simulated memory cycle",
    );
    out.put(
        "engine.cells",
        sum("attack-engine").1 / n,
        "count",
        "engine cells per pass",
    );
    out.put(
        "engine.busy_s",
        per_pass_s("attack-engine"),
        "s",
        "engine cells, summed, per pass",
    );

    // serve: round trips from the spans, accounting from METRICS deltas.
    let rtts: Vec<f64> = traced
        .iter()
        .flat_map(|tp| tp.durations_us("serve"))
        .collect();
    let delta = |name: &str| match (&before, &after) {
        (Some(b), Some(a)) => a.counter(name).saturating_sub(b.counter(name)) as f64,
        _ => 0.0,
    };
    // Each untraced pass sweeps the cluster twice (the pass and its
    // per-cell resolve phase); each traced pass once.
    let passes_through = (2 * untraced.len() + traced.len()) as f64;
    let requests = delta("qprac_run_requests_total");
    let retries: u64 = untraced.iter().map(|p| p.retries).sum();
    let fallbacks: u64 = untraced.iter().map(|p| p.fallbacks).sum();
    if w == Workload::SweepClusterWarm {
        // Accounting identity: every remote cell of every pass is one
        // RUN request, plus one per retry.
        let remote_cells = (last.unique as f64 - sum("attack-engine").1 / n) * passes_through;
        if requests != remote_cells + retries as f64 {
            out.problems.push(format!(
                "serve accounting: {requests} RUN requests for {remote_cells} remote cells + {retries} retries"
            ));
        }
    }
    out.put(
        "serve.requests",
        ratio(requests, passes_through),
        "count",
        "RUN requests per sweep of the cluster (METRICS delta)",
    );
    out.put(
        "serve.rtt_us_p50",
        median(&rtts),
        "us",
        format!("{} round trips", rtts.len()),
    );
    let rtt_tail = tail(&rtts, TAIL_BEYOND);
    out.put(
        "serve.rtt_us_tail",
        rtt_tail.map_or(0.0, |t| t.value),
        "us",
        rtt_tail.map_or("no round trips".into(), |t| t.label()),
    );
    out.put(
        "serve.retries",
        retries as f64,
        "count",
        "RemoteExecutor retries, all untraced passes",
    );
    out.put(
        "serve.local_fallbacks",
        fallbacks as f64,
        "count",
        "RemoteExecutor local fallbacks",
    );
    out.put(
        "serve.shard_hit_ratio",
        ratio(
            delta("qprac_mem_hits_total") + delta("qprac_disk_hits_total"),
            requests,
        ),
        "ratio",
        "shard memory+disk hits per RUN request",
    );
    let shard_rss: f64 = prep
        .cluster
        .as_ref()
        .map_or(0.0, |c| c.pids().iter().map(|&p| host::rss_mb(p)).sum());
    out.put("serve.shard_rss_mb", shard_rss, "MiB", "summed over shards");

    for (name, v) in last.modelled.metrics() {
        out.put(
            name,
            v as f64,
            "count",
            "modelled, summed over unique cells",
        );
    }
    let rows = figure_summary(prep).unwrap_or_default();
    for v in ["noop", "qprac", "proactive"] {
        let (perf, alerts) = rows
            .iter()
            .find(|r| r.0 == v)
            .map_or((0.0, 0.0), |r| (r.1, r.2));
        out.put(
            &format!("fig14.{v}_geomean"),
            perf,
            "ratio",
            "modelled normalized perf",
        );
        out.put(
            &format!("fig15.{v}_alerts"),
            alerts,
            "1/tREFI",
            "modelled mean alerts",
        );
    }

    // Self time per span name, per pass, over every thread.
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut residual_ns = 0u64;
    for tp in &traced {
        for t in &tp.threads {
            for (name, ns) in t.self_by_layer() {
                *self_ns.entry(name).or_default() += ns as f64;
            }
            residual_ns = residual_ns.max(t.self_time_residual_ns());
        }
    }
    for (span, _) in traced::LAYERS {
        out.put(
            &format!("self.{span}_s"),
            self_ns.get(span).copied().unwrap_or(0.0) / n / 1e9,
            "s",
            "self time per pass",
        );
    }
    if residual_ns > 0 {
        out.problems.push(format!(
            "self times do not add up to thread wall time (residual {residual_ns} ns)"
        ));
    }
    let t_walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
    let u_walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let (tw, uw) = (median(&t_walls), median(&u_walls));
    out.put(
        "trace.pass_s",
        tw,
        "s",
        format!("median of {} traced passes", traced.len()),
    );
    out.put(
        "trace.untraced_pass_s",
        uw,
        "s",
        format!("median of {} untraced passes", untraced.len()),
    );
    out.put(
        "trace.overhead_s",
        tw - uw,
        "s",
        "traced minus untraced pass_s",
    );
    out.put(
        "trace.spans",
        traced
            .iter()
            .map(|t| t.threads.iter().map(|x| x.spans().len()).sum::<usize>())
            .sum::<usize>() as f64
            / n,
        "count",
        "spans per traced pass",
    );
    out.put(
        "trace.selftime_residual_ns",
        residual_ns as f64,
        "ns",
        "max |sum(self) - wall| over threads",
    );

    let fmt = |v: &[f64]| {
        v.iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        out.report,
        "pass walls (s): untraced {} | traced {}",
        fmt(&u_walls),
        fmt(&t_walls)
    );
    out.report.push_str(&self_time_table(last));
    if let Some(path) = trace_out {
        let threads: Vec<_> = traced.into_iter().flat_map(|t| t.threads).collect();
        let meta = vec![("workload", w.name().to_string())];
        if let Err(e) = std::fs::write(path, spans::chrome_json(&threads, &meta)) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        } else {
            let _ = writeln!(out.report, "spans written to {}", path.display());
        }
    }
}

/// Per-thread self-time table of one traced pass: its rows add up to
/// each thread's wall time.
fn self_time_table(tp: &TracedPass) -> String {
    let mut s = String::from("self time by layer (last traced pass), ms:\n");
    let _ = write!(s, "{:<16} {:<52}", "span", "layer");
    for t in &tp.threads {
        let _ = write!(s, " {:>10}", t.label);
    }
    s.push('\n');
    let by: Vec<BTreeMap<&str, u64>> = tp.threads.iter().map(|t| t.self_by_layer()).collect();
    for (span, layer) in traced::LAYERS {
        if by.iter().all(|m| !m.contains_key(span)) {
            continue;
        }
        let _ = write!(s, "{span:<16} {layer:<52}");
        for m in &by {
            let _ = write!(
                s,
                " {:>10.3}",
                m.get(span).copied().unwrap_or(0) as f64 / 1e6
            );
        }
        s.push('\n');
    }
    let _ = write!(s, "{:<16} {:<52}", "sum", "(= wall)");
    for m in &by {
        let _ = write!(s, " {:>10.3}", m.values().sum::<u64>() as f64 / 1e6);
    }
    s.push('\n');
    let _ = write!(s, "{:<16} {:<52}", "wall", "");
    for t in &tp.threads {
        let _ = write!(s, " {:>10.3}", t.wall_ns() as f64 / 1e6);
    }
    s.push('\n');
    s
}

fn run(args: &Args, out: &mut Outcome) {
    let results = args.work.join("results");
    let mut prep = match Prepared::setup(
        args.workload,
        args.seed,
        &args.work,
        &results,
        &args.serve_bin,
    ) {
        Ok(p) => p,
        Err(e) => {
            out.count_pass(1, &[format!("set-up failed: {e}")]);
            return;
        }
    };
    if args.trace {
        traced_run(&mut prep, args.seconds, args.trace_out.as_ref(), out);
    } else {
        untraced(&mut prep, args.seconds, out);
    }
    if let Some(mut cluster) = prep.cluster.take() {
        out.problems.extend(cluster.shutdown());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, target] = argv.as_slice() {
        if flag == "--prefill" {
            std::process::exit(workloads::prefill(target));
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qprac-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Only the benchmark decides the program's knobs.
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("QPRAC_")) {
        std::env::remove_var(k);
    }
    let results = args.work.join("results");
    std::env::set_var("QPRAC_INSTR", args.workload.instr().to_string());
    std::env::set_var("QPRAC_RESULTS_DIR", &results);
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("qprac-perfbench: creating {}: {e}", results.display());
        std::process::exit(2);
    }

    let fp = host::fingerprint();
    eprintln!(
        "perfbench: workload={} seed={}{} seconds={} trace={} instr/core={}",
        args.workload.name(),
        args.seed,
        if args.workload.seeded() {
            ""
        } else {
            " (fixed population; seed unused)"
        },
        args.seconds,
        u8::from(args.trace),
        args.workload.instr(),
    );
    eprintln!(
        "host: {}",
        fp.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut out = Outcome::default();
    run(&args, &mut out);

    for m in &out.metrics {
        eprintln!("{:<34} {:>16.6} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
    eprint!("{}", out.report);
    let (a, f) = (out.attempted.max(1), out.failed);
    eprintln!(
        "cells: attempted {a}, failed {f} (failed_ratio {:.6})",
        f as f64 / a as f64
    );
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    eprintln!("correct: {}", out.correct());
    if let Err(e) = std::fs::write(&args.result, out.json() + "\n") {
        eprintln!("qprac-perfbench: writing {}: {e}", args.result.display());
        std::process::exit(2);
    }
    std::process::exit(if out.correct() { 0 } else { 1 });
}
