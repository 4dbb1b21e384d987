//! The three benchmark workloads: inputs made from the seed, the engine
//! configuration, one closed-loop repetition, and the correctness gate
//! against the dense `mq-statevec` oracle.
//!
//! Every configuration knob not set here stays at its library default, so
//! the benchmark exercises exactly the features a default user gets.

use crate::trace::{traced_store, Phase, Recorder};
use memqsim_core::engine::{build_plan, cpu, hybrid, EngineError, Granularity, RunReport};
use memqsim_core::store::{build_store, ChunkStore, DenseStore};
use memqsim_core::{measure, MemQSimConfig};
use mq_circuit::library::{self, qaoa};
use mq_circuit::partition::Plan;
use mq_circuit::Circuit;
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec, DeviceTopology};
use mq_num::metrics::{fidelity, max_amp_err};
use mq_num::Complex64;
use mq_statevec::{run_circuit, CpuConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Register width of every workload. At 20 qubits the dense state is
/// 16 MiB.
pub const QUBITS: u32 = 20;
/// Chunk size exponent of every workload (64 chunks of 256 KiB raw).
pub const CHUNK_BITS: u32 = 14;
/// Shots drawn by the sampling readout.
pub const SHOTS: usize = 4096;
/// Edges of the QAOA MaxCut graph.
pub const QAOA_EDGES: usize = 30;
/// QAOA layers.
pub const QAOA_LAYERS: usize = 2;
/// End-state fidelity target of the lossy workload.
pub const FIDELITY_TARGET: f64 = 0.999;
/// Largest amplitude error the lossless workloads may show against dense.
pub const LOSSLESS_MAX_ERR: f64 = 1e-10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QFT on the CPU engine, one worker, lossless FPC.
    Qft20Cpu,
    /// QAOA MaxCut on the CPU engine, two workers, adaptive codec under a
    /// fidelity budget.
    Qaoa20Auto,
    /// QFT through the hybrid engine on one simulated PCIe device.
    Qft20Hybrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Qft20Cpu,
        Workload::Qaoa20Auto,
        Workload::Qft20Hybrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Qft20Cpu => "qft20-cpu",
            Workload::Qaoa20Auto => "qaoa20-auto",
            Workload::Qft20Hybrid => "qft20-hybrid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine configuration: library defaults plus the knobs named in
    /// the workload's definition.
    pub fn config(self) -> MemQSimConfig {
        let builder = MemQSimConfig::builder().chunk_bits(CHUNK_BITS);
        let builder = match self {
            Workload::Qft20Cpu | Workload::Qft20Hybrid => builder.workers(1).codec(CodecSpec::Fpc),
            Workload::Qaoa20Auto => builder
                .workers(2)
                .codec(CodecSpec::Auto { eb: None })
                .fidelity_budget(FIDELITY_TARGET),
        };
        builder.build().expect("benchmark configurations are valid")
    }

    /// True when the workload's codec decodes bit-exactly.
    pub fn lossless(self) -> bool {
        self != Workload::Qaoa20Auto
    }

    /// Threads the engine runs on, as printed with the results.
    pub fn thread_note(self) -> &'static str {
        match self {
            Workload::Qft20Cpu => "engine 1 worker; dense 1 worker",
            Workload::Qaoa20Auto => "engine 2 workers; dense 2 workers",
            Workload::Qft20Hybrid => {
                "engine 1 host worker + pipelined producer/issuer/completer and 1 simulated device; dense 1 worker"
            }
        }
    }
}

/// What the readout produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `(basis_state, count)` pairs, descending count.
    Counts(Vec<(usize, usize)>),
    /// Expected MaxCut value.
    Cut(f64),
}

/// A workload's inputs, derived from the seed alone. The engine receives
/// only the circuit; the readout receives the edges and the sampling seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub circuit: Circuit,
    pub edges: Vec<(u32, u32)>,
    pub sample_seed: u64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let sample_seed = rng.next_u64();
        let (circuit, edges) = match workload {
            Workload::Qft20Cpu | Workload::Qft20Hybrid => (library::qft(QUBITS), Vec::new()),
            Workload::Qaoa20Auto => {
                let edges = qaoa::random_graph(QUBITS, QAOA_EDGES, rng.next_u64());
                let gammas: Vec<f64> = (0..QAOA_LAYERS)
                    .map(|_| rng.gen_range(0.1..std::f64::consts::PI))
                    .collect();
                let betas: Vec<f64> = (0..QAOA_LAYERS)
                    .map(|_| rng.gen_range(0.1..std::f64::consts::FRAC_PI_2))
                    .collect();
                (qaoa::qaoa_maxcut(QUBITS, &edges, &gammas, &betas), edges)
            }
        };
        Inputs {
            workload,
            circuit,
            edges,
            sample_seed,
        }
    }

    /// The readout every path shares: seeded sampling for QFT, expected
    /// cut for QAOA. Dense reference runs use it too, on a dense store, so
    /// the two sides compare the state and not two readout algorithms.
    pub fn readout(&self, store: &dyn ChunkStore) -> Result<Answer, EngineError> {
        Ok(match self.workload {
            Workload::Qft20Cpu | Workload::Qft20Hybrid => {
                let mut rng = StdRng::seed_from_u64(self.sample_seed);
                Answer::Counts(measure::sample_counts(store, SHOTS, &mut rng)?)
            }
            Workload::Qaoa20Auto => Answer::Cut(measure::expected_cut(store, &self.edges)?),
        })
    }
}

/// The system under test after set-up: the zero state encoded in its
/// store, the plan, and the device fleet for the hybrid workload.
pub struct Prepared {
    pub store: Arc<dyn ChunkStore>,
    pub plan: Plan,
    pub devices: Vec<Device>,
    /// Seconds spent building `plan` (included in the set-up time).
    pub plan_s: f64,
}

/// Sets up one repetition: store construction (encoding `|0...0>`),
/// `build_plan`, and the device for the hybrid workload. With a recorder,
/// the store is the traced stack.
pub fn setup(inputs: &Inputs, rec: Option<&Arc<Recorder>>) -> Result<Prepared, EngineError> {
    let cfg = inputs.workload.config();
    let n = inputs.circuit.n_qubits();
    let store = match rec {
        Some(rec) => traced_store(n, &cfg, rec),
        None => build_store(n, &cfg)?,
    };
    let t = Instant::now();
    let plan = build_plan(&inputs.circuit, &cfg, Granularity::Staged);
    let plan_s = t.elapsed().as_secs_f64();
    let devices = match inputs.workload {
        Workload::Qft20Hybrid => DeviceTopology::homogeneous(1, DeviceSpec::pcie_gen3()).build(),
        _ => Vec::new(),
    };
    Ok(Prepared {
        store,
        plan,
        devices,
        plan_s,
    })
}

/// Runs the circuit on the workload's engine. The hybrid workload takes
/// the pipelined path `MemQSim::simulate_hybrid` takes.
pub fn run_engine(inputs: &Inputs, prepared: &Prepared) -> Result<RunReport, EngineError> {
    let cfg = inputs.workload.config();
    match inputs.workload {
        Workload::Qft20Cpu | Workload::Qaoa20Auto => {
            cpu::run(&prepared.store, &inputs.circuit, &cfg, Granularity::Staged)
        }
        Workload::Qft20Hybrid => hybrid::run_fleet(
            &prepared.store,
            &inputs.circuit,
            &cfg,
            &prepared.devices,
            true,
        ),
    }
}

/// Timings and results of one engine run plus readout.
pub struct EngineSide {
    pub report: RunReport,
    pub answer: Answer,
    /// Engine run, seconds.
    pub run_s: f64,
    /// Readout, seconds.
    pub readout_s: f64,
    /// Process CPU seconds over run + readout, all threads.
    pub cpu_s: f64,
    /// Recorder-clock window of the engine run, when traced.
    pub run_window_ns: (u64, u64),
}

/// The timed part of a repetition: engine run, then readout. With a
/// recorder, wrapper spans are tagged with the phase they fall in.
pub fn time_to_answer(
    inputs: &Inputs,
    prepared: &Prepared,
    rec: Option<&Arc<Recorder>>,
) -> Result<EngineSide, EngineError> {
    let phase = |p: Phase| {
        if let Some(r) = rec {
            r.set_phase(p);
        }
    };
    let now_ns = || rec.map_or(0, |r| r.now_ns());
    let cpu0 = process_cpu_seconds();
    phase(Phase::Run);
    let run0 = now_ns();
    let t0 = Instant::now();
    let report = run_engine(inputs, prepared);
    let run_s = t0.elapsed().as_secs_f64();
    let run1 = now_ns();
    phase(Phase::Readout);
    let answer = match &report {
        Ok(_) => inputs.readout(&*prepared.store),
        Err(e) => Err(e.clone()),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu0;
    phase(Phase::Idle);
    Ok(EngineSide {
        report: report?,
        answer: answer?,
        run_s,
        readout_s: elapsed - run_s,
        cpu_s,
        run_window_ns: (run0, run1),
    })
}

/// The dense reference: the same circuit on `mq_statevec::run_circuit`
/// with the engine's worker count, then the same readout.
pub struct DenseSide {
    pub amplitudes: Vec<Complex64>,
    pub answer: Answer,
    pub run_s: f64,
    pub readout_s: f64,
}

pub fn dense_reference(inputs: &Inputs) -> Result<DenseSide, EngineError> {
    let dense_cfg = CpuConfig {
        workers: inputs.workload.config().workers,
        ..CpuConfig::default()
    };
    let t0 = Instant::now();
    let state = run_circuit(&inputs.circuit, &dense_cfg);
    let run_s = t0.elapsed().as_secs_f64();
    let view = DenseStore::from_amplitudes(state.amplitudes(), CHUNK_BITS);
    let answer = inputs.readout(&view)?;
    let readout_s = t0.elapsed().as_secs_f64() - run_s;
    Ok(DenseSide {
        amplitudes: state.amplitudes().to_vec(),
        answer,
        run_s,
        readout_s,
    })
}

/// Outcome of the correctness gate.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub passed: bool,
    pub fidelity: f64,
    pub max_amp_err: f64,
    /// One line saying what was checked and, on failure, what missed.
    pub detail: String,
}

/// Checks the engine's final state and answer against the dense oracle.
///
/// Lossless workloads: max amplitude error at most [`LOSSLESS_MAX_ERR`]
/// and identical sample counts. Lossy workload: fidelity at least the
/// target, and an expected cut within `|E| * sqrt(1 - F)` of dense's — the
/// most two pure states at fidelity `F` can disagree on an observable with
/// spectrum in `[0, |E|]`.
pub fn gate(
    inputs: &Inputs,
    engine_state: &[Complex64],
    engine: &Answer,
    dense: &DenseSide,
) -> Verdict {
    let f = fidelity(engine_state, &dense.amplitudes);
    let err = max_amp_err(engine_state, &dense.amplitudes);
    let (passed, detail) = match (inputs.workload.lossless(), engine, &dense.answer) {
        (true, Answer::Counts(a), Answer::Counts(b)) => {
            let counts_ok = a == b;
            (
                err <= LOSSLESS_MAX_ERR && counts_ok,
                format!(
                    "max_amp_err {err:.3e} (limit {LOSSLESS_MAX_ERR:.0e}), counts {} dense",
                    if counts_ok { "equal" } else { "DIFFER from" }
                ),
            )
        }
        (false, Answer::Cut(a), Answer::Cut(b)) => {
            let tol = inputs.edges.len() as f64 * (1.0 - f).max(0.0).sqrt() + 1e-9;
            let cut_ok = (a - b).abs() <= tol;
            (
                f >= FIDELITY_TARGET && cut_ok,
                format!(
                    "fidelity {f:.6} (target {FIDELITY_TARGET}), expected cut {a:.6} vs dense {b:.6} (tolerance {tol:.3e})"
                ),
            )
        }
        _ => (false, "answer kind does not match the workload".to_string()),
    };
    Verdict {
        passed,
        fidelity: f,
        max_amp_err: err,
        detail,
    }
}

/// Process CPU time (user + system, all threads, including threads that
/// already exited) from `/proc/self/stat`, in seconds. Resolution is one
/// clock tick (10 ms on Linux, whose `USER_HZ` is 100). Returns 0 where
/// the file is unreadable.
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}
