//! `dpl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, the
//! result object: `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end metrics untraced, the per-layer metrics traced).  The line
//! before it stamps the run's provenance.  Exits 1 on a failed check or a
//! usage error.

use std::process::ExitCode;

use dpl_obs::Json;
use dpl_perfbench::{host, run, RunOptions, Workload};

const USAGE: &str = "usage: dpl-perfbench \
    --workload <keyrec_ooc_f64|tvla_compact_shards|library_to_mtd> \
    --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunOptions {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match std::panic::catch_unwind(|| run(&options)) {
        Ok(Ok(result)) => result,
        Ok(Err(e)) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("run panicked");
            return ExitCode::FAILURE;
        }
    };
    for failure in &result.checks.failures {
        eprintln!("FAILED: {failure}");
    }
    let (rev, dirty) = match host::git_revision() {
        Some((rev, dirty)) => (Json::Str(rev), Json::Bool(dirty)),
        None => (Json::Null, Json::Null),
    };
    let provenance = Json::object(vec![
        ("git_rev", rev),
        ("dirty", dirty),
        ("workload", Json::str(options.workload.name())),
        ("seed", Json::U64(options.seed)),
        ("seconds", Json::F64(options.seconds)),
        ("trace", Json::Bool(options.trace)),
        ("nproc", Json::U64(host::nproc() as u64)),
        ("llc_bytes", host::llc_bytes().map_or(Json::Null, Json::U64)),
        ("sizes", Json::str(format!("{:?}", options.workload))),
        ("campaigns_untraced", Json::U64(result.campaigns.0 as u64)),
        ("campaigns_traced", Json::U64(result.campaigns.1 as u64)),
        (
            "trace_file",
            result
                .trace_file
                .as_ref()
                .map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
    ]);
    println!("provenance: {}", provenance.render_compact());
    println!("{}", result.to_json().render_compact());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
