//! Load generator and layer tracer for the `gde-server` serving tier.
//!
//! ```text
//! perfbench --workload <hot_wire|cold_large|churn_rw> --seed <n>
//!           --seconds <s> --trace <0|1> --server-bin <path>
//!           [--out-dir <dir>]
//! ```
//!
//! Usually run through `python3 perfbench/run.py …` from the repository
//! root, which builds the server and this program first. The inputs come
//! from `(workload, seed)` only; every answer is checked against an
//! in-process plain oracle after the timed phases. The last line of
//! standard output is the result object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer ones
//! under `--trace 1`. The line before it records the run's provenance:
//! thread and worker settings, sizes, the cache budget, the sample count
//! behind each metric, and a calibration loop timed at start and end.

mod gen;
mod net;
mod oracle;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use gde_server::json::Json;
use gen::{Inputs, Workload};
use net::ServerKind;
use run::{Metrics, Options};
use stats::{calibrate, median, quantile};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let (mut server_bin, mut out_dir) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--server-bin" => server_bin = Some(value()?.into()),
            "--out-dir" => out_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if f64::is_nan(seconds) || seconds < 0.0 {
        return Err("--seconds must not be negative".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // the load generator's own evaluation (oracle, layer replays) runs on
    // the same thread budget as the server
    gde_datagraph::par::set_max_threads(nproc);
    let calibration_start = calibrate();
    let gen_t = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed);
    let generate_s = gen_t.elapsed().as_secs_f64();
    let opts = Options {
        seconds: args.seconds,
        threads: nproc,
        server: ServerKind::Binary(args.server_bin.clone()),
        out_dir: args.out_dir.clone(),
    };
    let mut samples: Vec<(&str, usize)> = Vec::new();
    let measure_t = Instant::now();
    let (metrics, outcome, extra) = if args.trace {
        run::traced(&inputs, &opts)
    } else {
        let (e2e, o) = run::untraced(&inputs, &opts);
        let mut m: Metrics = Metrics::new();
        let mut put = |name: &'static str, v: Option<f64>, unit: &'static str, n: usize| {
            samples.push((name, n));
            if let Some(v) = v {
                m.insert(name.to_string(), (v, unit));
            }
        };
        put("setup_s", median(&e2e.setup_s), "s", e2e.setup_s.len());
        put(
            "query_p50_ms",
            quantile(&e2e.query_ms, 0.5),
            "ms",
            e2e.query_ms.len(),
        );
        put(
            "query_p90_ms",
            quantile(&e2e.query_ms, 0.9),
            "ms",
            e2e.query_ms.len(),
        );
        put(
            "throughput_qps",
            (e2e.serve_s > 0.0).then(|| e2e.reads as f64 / e2e.serve_s),
            "1/s",
            e2e.reads as usize,
        );
        put(
            "delta_p50_ms",
            median(&e2e.delta_ms),
            "ms",
            e2e.delta_ms.len(),
        );
        put(
            "fresh_p50_ms",
            median(&e2e.fresh_ms),
            "ms",
            e2e.fresh_ms.len(),
        );
        put("peak_rss_mb", median(&e2e.rss_mb), "MiB", e2e.rss_mb.len());
        let shape = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
            .iter()
            .map(|q| Json::num(quantile(&e2e.query_ms, *q).unwrap_or(0.0)))
            .collect();
        let extra = vec![
            ("cycles", Json::num(e2e.cycles as f64)),
            ("query_ms_quantiles_10_25_50_75_90_95_99", Json::Arr(shape)),
            (
                "setup_s_all",
                Json::Arr(e2e.setup_s.iter().map(|v| Json::num(*v)).collect()),
            ),
            (
                "peak_rss_mb_all",
                Json::Arr(e2e.rss_mb.iter().map(|v| Json::num(*v)).collect()),
            ),
        ];
        (m, o, extra)
    };
    let measure_s = measure_t.elapsed().as_secs_f64();
    let verify_t = Instant::now();
    let verdict = oracle::Oracle::new(&inputs).verify(&inputs, &outcome.observed);
    let verify_s = verify_t.elapsed().as_secs_f64();
    let calibration_end = calibrate();

    let expected: &[&str] = if args.trace {
        &[]
    } else {
        &[
            "setup_s",
            "query_p50_ms",
            "query_p90_ms",
            "throughput_qps",
            "delta_p50_ms",
            "fresh_p50_ms",
            "peak_rss_mb",
        ]
    };
    let mut problems: Vec<String> = outcome.tally.notes.clone();
    problems.extend(verdict.notes.iter().cloned());
    for name in expected {
        match metrics.get(*name) {
            Some((v, _)) if v.is_finite() && *v > 0.0 => {}
            _ => problems.push(format!("metric {name} has no positive value")),
        }
    }
    let failed = outcome.tally.failed + verdict.mismatches as u64;
    let correct = failed == 0
        && problems.is_empty()
        && verdict.checked > 0
        && metrics.values().all(|(v, _)| v.is_finite());
    for p in &problems {
        eprintln!("perfbench: {p}");
    }

    let provenance = Json::obj(
        [
            ("workload", Json::str(inputs.workload.name())),
            ("seed", Json::num(args.seed as f64)),
            ("trace", Json::Bool(args.trace)),
            ("seconds", Json::num(args.seconds)),
            ("nproc", Json::num(nproc as f64)),
            ("gde_max_threads", Json::num(nproc as f64)),
            ("server_workers", Json::num(nproc as f64)),
            ("clients", Json::num(inputs.clients as f64)),
            ("shards_pinned", Json::num(inputs.shards as f64)),
            ("cache_budget_bytes", Json::num(inputs.cache_budget as f64)),
            ("source_nodes", Json::num(inputs.source.node_count() as f64)),
            ("source_edges", Json::num(inputs.source.edge_count() as f64)),
            ("solution_nodes", Json::num(verdict.solution_size.0 as f64)),
            ("solution_edges", Json::num(verdict.solution_size.1 as f64)),
            ("distinct_reads", Json::num(inputs.items.len() as f64)),
            ("responses_checked", Json::num(verdict.checked as f64)),
            (
                "distinct_answers_checked",
                Json::num(verdict.distinct as f64),
            ),
            (
                "samples",
                Json::obj(samples.iter().map(|(n, c)| (*n, Json::num(*c as f64)))),
            ),
            ("calibration_start_ms", Json::num(calibration_start)),
            ("calibration_end_ms", Json::num(calibration_end)),
            ("generate_s", Json::num(generate_s)),
            ("measure_s", Json::num(measure_s)),
            ("verify_s", Json::num(verify_s)),
            ("wall_s", Json::num(started.elapsed().as_secs_f64())),
        ]
        .into_iter()
        .chain(extra),
    );
    println!("{}", Json::obj([("provenance", provenance)]).encode());
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, (v, unit))| {
                let value = Json::num(if v.is_finite() { *v } else { 0.0 });
                (
                    name.clone(),
                    Json::obj([("value", value), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::num(outcome.tally.attempted.max(1) as f64)
            ),
            ("failed", Json::num(failed as f64)),
            ("metrics", metrics_json),
        ])
        .encode()
    );
}
