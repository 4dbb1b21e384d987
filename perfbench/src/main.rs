//! `perfbench`: one closed-loop benchmark run of one workload.
//!
//! ```text
//! perfbench --workload <qft20-cpu|qaoa20-auto|qft20-hybrid> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats set-up, engine run, readout and the dense reference until
//! `--seconds` have passed (at least [`MIN_REPS`] times), checking every
//! answer against the dense oracle. The last line of standard output is a
//! JSON object: the end-to-end metrics with `--trace 0`; with `--trace 1`
//! one extra traced repetition follows and the per-layer metrics are
//! printed instead. See `perfbench/README.md`.

use memqsim_core::{EngineError, Role};
use perfbench::layers::{analyse, END_TO_END, PER_LAYER};
use perfbench::trace::Recorder;
use perfbench::workload::{
    dense_reference, gate, setup, time_to_answer, DenseSide, EngineSide, Inputs, Prepared, Verdict,
    Workload, QUBITS,
};
use perfbench::{mean, median};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Fewest untraced repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-ups per repetition; `setup_s` is the median over all of them.
const SETUP_REPEATS: usize = 5;
/// A seed kept out of all tuning. A later claim of a gain must also hold
/// with `--seed 9001`.
const HELD_OUT_SEED: u64 = 9001;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; "unknown" outside one.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Some(head) = read_trimmed(git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(git.join(r)).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Size string of the first cache of `level` that holds data, from sysfs.
fn cache_size(level: &str) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|d| {
            read_trimmed(d.join("level")).as_deref() == Some(level)
                && read_trimmed(d.join("type")).as_deref() != Some("Instruction")
        })
        .and_then(|d| read_trimmed(d.join("size")))
        .unwrap_or_else(|| "unknown".into())
}

fn print_environment(args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let state_mib = ((1u64 << QUBITS) * 16) >> 20;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env commit={} nproc={nproc} cpu=\"{cpu}\" l2={} l3={} rustc=\"{rustc}\"",
        commit(),
        cache_size("2"),
        cache_size("3")
    );
    println!("env threads: {}", args.workload.thread_note());
    println!(
        "env state: {QUBITS} qubits = {state_mib} MiB dense, against an L3 of {}. A state that fits in L3 makes this a time-to-answer benchmark, not a memory-bandwidth one.",
        cache_size("3")
    );
}

/// One repetition's results.
struct Rep {
    prepared: Prepared,
    side: EngineSide,
    dense: DenseSide,
    verdict: Verdict,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.side.run_s + self.side.readout_s
    }

    fn dense_wall_s(&self) -> f64 {
        self.dense.run_s + self.dense.readout_s
    }

    /// log2(dense state bytes / peak host bytes), peak host bytes being
    /// the store's peak plus working buffers plus pinned staging.
    fn qubits_gained(&self) -> f64 {
        let r = &self.side.report;
        let host = (r.peak_resident_bytes + r.peak_buffer_bytes + r.pinned_bytes).max(1);
        (self.prepared.store.dense_bytes() as f64 / host as f64).log2()
    }
}

/// Set-up (`setups` times, keeping the last), time to answer, dense
/// reference, correctness gate. Set-up seconds and plan-build seconds are
/// appended to the sample lists.
fn repetition(
    inputs: &Inputs,
    rec: Option<&Arc<Recorder>>,
    setups: usize,
    setup_samples: &mut Vec<f64>,
    plan_samples: &mut Vec<f64>,
) -> Result<Rep, EngineError> {
    let mut prepared = None;
    for _ in 0..setups {
        drop(prepared.take());
        let t = Instant::now();
        let p = setup(inputs, rec)?;
        setup_samples.push(t.elapsed().as_secs_f64());
        plan_samples.push(p.plan_s);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let side = time_to_answer(inputs, &prepared, rec)?;
    let dense = dense_reference(inputs)?;
    let state = prepared.store.to_dense()?;
    let verdict = gate(inputs, &state, &side.answer, &dense);
    Ok(Rep {
        prepared,
        side,
        dense,
        verdict,
    })
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> String {
    let body: Vec<String> = names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| {
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the benchmark and reads as 0 with a warning.
            let v = if v.is_finite() {
                v
            } else {
                eprintln!("perfbench: metric {name} is not finite");
                0.0
            };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes wrapper spans and engine role spans for offline inspection.
fn write_spans(
    path: &Path,
    rec: &Recorder,
    engine_spans: &[(Role, u64, u64)],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_tsv(&mut out)?;
    for (role, lo, hi) in engine_spans {
        writeln!(out, "engine.{}\t1\t-\t{lo}\t{hi}\t0\t0", role.label())?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_environment(&args);
    let inputs = Inputs::generate(args.workload, args.seed);

    let mut setup_samples = Vec::new();
    let mut plan_samples = Vec::new();
    let (mut wall, mut cpu, mut dense_wall, mut slowdown, mut gained) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut min_fidelity = f64::INFINITY;
    let mut ledger = String::new();
    let start = Instant::now();
    while attempted < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        match repetition(
            &inputs,
            None,
            SETUP_REPEATS,
            &mut setup_samples,
            &mut plan_samples,
        ) {
            Ok(rep) => {
                let r = &rep.side.report;
                println!(
                    "rep {attempted}: wall {:.4} s (run {:.4} + readout {:.4}) cpu {:.2} s dense {:.4} s slowdown {:.3} qubits_gained {:.3} | {} {}",
                    rep.wall_s(),
                    rep.side.run_s,
                    rep.side.readout_s,
                    rep.side.cpu_s,
                    rep.dense_wall_s(),
                    rep.wall_s() / rep.dense_wall_s(),
                    rep.qubits_gained(),
                    if rep.verdict.passed { "PASS" } else { "FAIL" },
                    rep.verdict.detail
                );
                min_fidelity = min_fidelity.min(rep.verdict.fidelity);
                ledger = match r.fidelity_budget {
                    Some(target) => format!(
                        "fidelity budget {target}: error_budget {:.3e}, error_spent {:.3e}, {} of {} stages spent",
                        r.error_budget,
                        r.error_spent,
                        r.telemetry.error_spend().iter().filter(|s| s.spent > 0.0).count(),
                        r.telemetry.error_spend().len()
                    ),
                    None => "no fidelity budget (lossless codec)".to_string(),
                };
                if !rep.verdict.passed {
                    failed += 1;
                    continue;
                }
                wall.push(rep.wall_s());
                cpu.push(rep.side.cpu_s);
                dense_wall.push(rep.dense_wall_s());
                slowdown.push(rep.wall_s() / rep.dense_wall_s());
                gained.push(rep.qubits_gained());
            }
            Err(e) => {
                failed += 1;
                println!("rep {attempted}: FAIL engine error: {e}");
            }
        }
    }
    println!(
        "info: ops_failed_frac {} ({failed}/{attempted}), min fidelity vs dense {min_fidelity:.9}, {ledger}",
        failed as f64 / attempted as f64
    );

    let metrics = if args.trace {
        let rec = Recorder::new();
        // The traced set-up is not a set-up sample.
        let (mut traced_setups, mut traced_plans) = (Vec::new(), Vec::new());
        attempted += 1;
        match repetition(
            &inputs,
            Some(&rec),
            1,
            &mut traced_setups,
            &mut traced_plans,
        ) {
            Ok(rep) => {
                if !rep.verdict.passed {
                    failed += 1;
                }
                println!(
                    "traced rep: wall {:.4} s | {} {}",
                    rep.wall_s(),
                    if rep.verdict.passed { "PASS" } else { "FAIL" },
                    rep.verdict.detail
                );
                let layers = analyse(
                    &inputs,
                    &rep.prepared,
                    &rep.side,
                    &rep.dense,
                    &rec,
                    median(&wall),
                    median(&plan_samples),
                );
                println!("{}", layers.reconcile_run);
                println!("{}", layers.reconcile_readout);
                let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!(
                        "{}-seed{}.spans.tsv",
                        args.workload.name(),
                        args.seed
                    ));
                match write_spans(&path, &rec, &layers.engine_spans) {
                    Ok(()) => println!("spans written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
                }
                metrics_json(&PER_LAYER, &layers.values)
            }
            Err(e) => {
                failed += 1;
                println!("traced rep: FAIL engine error: {e}");
                metrics_json(&PER_LAYER, &[0.0; PER_LAYER.len()])
            }
        }
    } else {
        // The three run times are means over the passing repetitions. On a
        // shared host a run alternates between fast and slow phases, so
        // the repetition times fall into two clusters; the median jumps
        // between them from run to run, while the mean follows the share
        // of time spent in each.
        let values = [
            mean(&wall),
            mean(&cpu),
            median(&setup_samples),
            mean(&dense_wall),
            median(&slowdown),
            median(&gained),
        ];
        metrics_json(&END_TO_END, &values)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
