//! `perfbench`: the repository's benchmark of `osn-serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! Builds the workload's inputs from `--seed`, computes every request's
//! reply serially in-process (`ServeState`) as the correctness reference,
//! then loads a real `osn-serve` child process from one client with
//! [`CONNECTIONS`] closed-loop connections for `--seconds`. Every reply is
//! compared byte for byte with its reference. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it carries
//! the per-layer metrics of the traced run (see `ladder.rs`). The process
//! exits nonzero when any reply mismatches or the run cannot complete.
//! `perfbench/README.md` documents the workloads and metrics.

mod inputs;
mod ladder;
mod load;
mod stats;
mod trace;

use inputs::{split, Inputs, Workload};
use load::{closed_loop, Conn, Daemon, LoadResult};
use s3crm_serve::spec::ProbeSpec;
use s3crm_serve::{CampaignSpec, ServeState};
use stats::{median, Metric, Outcome};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Client connections (one closed loop each), matching the 2-core target.
pub const CONNECTIONS: usize = 2;
/// Daemon start-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Admission slots of the in-process reference state.
const REFERENCE_INFLIGHT: usize = 4;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("rss_peak_mb", "MiB"),
    ("redemption_rate_mean", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    // Inputs are regenerated from the seed on every run; only trace files
    // (written beside the work directory) are kept.
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            println!("{}", report.line);
            if !report.correct {
                eprintln!("perfbench: replies did not match the serial reference");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The run's result line and whether every output was correct.
struct Report {
    line: String,
    correct: bool,
}

/// The reference payload of every request in the cycle, computed serially
/// in-process, plus the state that computed it (the traced run reuses it).
pub struct Reference {
    pub state: ServeState,
    pub expected: Vec<Vec<String>>,
}

/// Serve every request of the cycle once, serially, in-process.
fn reference(inputs: &Inputs) -> Result<Reference, String> {
    let state = ServeState::open(&inputs.path, REFERENCE_INFLIGHT)?;
    let expected = inputs
        .requests
        .iter()
        .map(|r| serve_in_process(&state, r))
        .collect::<Result<_, _>>()?;
    Ok(Reference { state, expected })
}

/// One request line through `ServeState`, returning its deterministic
/// payload.
pub fn serve_in_process(state: &ServeState, line: &str) -> Result<Vec<String>, String> {
    match split(line) {
        ("CAMPAIGN", body) => Ok(state
            .run_campaign(&CampaignSpec::parse(body)?)?
            .deterministic_lines()),
        ("PROBE", body) => Ok(vec![state.probe(&ProbeSpec::parse(body)?)?]),
        (verb, _) => Err(format!("no in-process path for {verb}")),
    }
}

/// Start a daemon and warm it: one request per resident backend (the
/// first request of the cycle touches every backend the cycle uses).
/// Returns the daemon and the spawn-to-warm time in seconds.
fn start_warm(
    serve_bin: &Path,
    inputs: &Inputs,
    reference: &Reference,
) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(serve_bin, &inputs.path)?;
    let mut conn = Conn::connect(daemon.addr)?;
    let reply = conn
        .request(&inputs.requests[0])
        .map_err(|e| format!("warm-up request: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    match stats::classify(&reply, &reference.expected[0]) {
        Outcome::Ok => Ok((daemon, setup_s)),
        other => Err(format!("warm-up request failed ({other:?}): {reply:?}")),
    }
}

/// Mean `SUMMARY` redemption rate over the successful replies.
fn redemption_rate_mean(load: &LoadResult) -> Result<f64, String> {
    let rates = load
        .samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| summary_rate(&s.payload))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(stats::mean(&rates))
}

/// The `redemption_rate` column of a campaign payload (`SUMMARY` header,
/// then `SUMMARY` row).
fn summary_rate(payload: &[String]) -> Result<f64, String> {
    let bad = || format!("cannot read a rate from {payload:?}");
    let header = payload
        .first()
        .and_then(|l| l.strip_prefix("SUMMARY "))
        .ok_or_else(bad)?;
    let row = payload
        .get(1)
        .and_then(|l| l.strip_prefix("SUMMARY "))
        .ok_or_else(bad)?;
    let col = header
        .split(',')
        .position(|c| c == "redemption_rate")
        .ok_or_else(bad)?;
    row.split(',')
        .nth(col)
        .and_then(|v| v.parse().ok())
        .ok_or_else(bad)
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let t_in = Instant::now();
    let inputs = inputs::build(args.workload, args.seed, work)?;
    let fp = &inputs.fingerprint;
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# input n={} m={} shards={} file_bytes={} fnv1a={:016x} distinct_requests={} \
         generated_in_s={:.3}",
        fp.nodes,
        fp.edges,
        fp.shards,
        fp.file_bytes,
        fp.checksum,
        inputs.requests.len(),
        t_in.elapsed().as_secs_f64()
    );
    println!(
        "# nproc={} daemon_pool={} connections={CONNECTIONS} loop=closed rev={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        osn_pool::default_parallelism(),
        source_rev()
    );
    let reference = reference(&inputs)?;
    if args.trace {
        return ladder::run(
            args.serve_bin.as_path(),
            args.seconds,
            &inputs,
            reference,
            work,
        );
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for k in 0..SETUPS {
        let (d, s) = start_warm(&args.serve_bin, &inputs, &reference)?;
        setups.push(s);
        if k + 1 < SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one setup");
    let load = closed_loop(
        daemon.addr,
        CONNECTIONS,
        args.seconds,
        &inputs.requests,
        &|seq| inputs.request_index(seq),
        &reference.expected,
    );
    let rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;

    let lat = load.latencies();
    let attempted = lat.count();
    let ok = load.count(Outcome::Ok);
    let mismatched = load.count(Outcome::Mismatch);
    // A percentile that lands on a failed request is unbounded; it is
    // reported as the whole measured window, which exceeds any latency a
    // completed request could show.
    let pct = |q: f64| lat.percentile(q).unwrap_or(load.wall_s * 1e3);
    let metrics = [
        ("setup_s", median(&setups)),
        ("ok_per_s", stats::ratio(ok as f64, load.wall_s)),
        ("latency_p50_ms", pct(0.5)),
        ("latency_p90_ms", pct(0.9)),
        ("ok_frac", stats::ratio(ok as f64, attempted as f64)),
        ("rss_peak_mb", rss_mb),
        ("redemption_rate_mean", redemption_rate_mean(&load)?),
    ];
    println!(
        "# requests: warm_up={SETUPS} (one per daemon start) measured={attempted} ok={ok} \
         mismatch={mismatched} busy={} err={} transport={} failed_frac={}",
        load.count(Outcome::Busy),
        load.count(Outcome::Err),
        load.count(Outcome::Transport),
        stats::ratio((attempted - ok) as f64, attempted as f64)
    );
    println!(
        "# samples: setup_s n={SETUPS}; latency_p50_ms n={attempted} beyond={}; \
         latency_p90_ms n={attempted} beyond={}; wall_s={:.3}",
        lat.beyond(0.5),
        lat.beyond(0.9),
        load.wall_s
    );
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(metrics)
        .map(|(&(name, unit), (check, value))| {
            assert_eq!(name, check, "END_TO_END order");
            println!("{name} = {value} {unit}");
            Metric { name, unit, value }
        })
        .collect();
    let correct = mismatched == 0 && ok > 0;
    Ok(Report {
        line: stats::result_line(correct, attempted, attempted - ok, &metrics)?,
        correct,
    })
}

/// The source revision: the checkout's `.git` HEAD when there is one, and
/// always a digest of the workspace sources (checkouts without history
/// still get a comparable identity).
fn source_rev() -> String {
    let git = std::fs::read_to_string(".git/HEAD").ok().and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
                .ok()
                .map(|s| s.trim().to_string()),
            None => Some(head.to_string()),
        }
    });
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.toml"));
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!(
        "git:{} src:{:016x}",
        git.as_deref().unwrap_or("none"),
        inputs::fnv1a(&bytes)
    )
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the code reports is declared in `BENCHMARK.json`, and
    /// the file declares no metric the code does not report.
    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let reported: Vec<(&str, &str)> = END_TO_END
            .iter()
            .chain(ladder::PER_LAYER.iter())
            .copied()
            .collect();
        for (name, unit) in &reported {
            assert!(stats::valid_name(name) && stats::valid_unit(unit), "{name}");
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(declared, reported.len() + Workload::ALL.len());
    }

    #[test]
    fn rates_are_read_from_summary_replies() {
        let summary = vec![
            "SUMMARY algorithm,binv,redemption_rate,expected_benefit".to_string(),
            "SUMMARY s3ca,5000,0.358,20.1".to_string(),
        ];
        assert_eq!(summary_rate(&summary).unwrap(), 0.358);
        assert!(summary_rate(&summary[..1]).is_err());
        assert!(summary_rate(&["STATS benefit=1".to_string()]).is_err());
    }
}
