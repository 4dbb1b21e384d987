//! Per-layer accounting of one traced repetition: the benchmark's metric
//! tables, the numbers each layer contributes, and the reconciliation of
//! layer self times against the run's wall time.
//!
//! Inputs are the wrapper spans ([`Recorder`]), the engine's own
//! `RunReport` / `RunTelemetry`, and a replay of `specialize` over the
//! plan. Store and codec figures cover the whole time to answer (engine
//! run and readout); `measure.*` isolates the readout's share.

use crate::trace::{waterfall_ns, Layer, Phase, Recorder, SpanRec};
use crate::workload::{DenseSide, EngineSide, Inputs, Prepared};
use memqsim_core::planner::chunk_groups;
use memqsim_core::specialize::{specialize, GroupContext, Specialized};
use memqsim_core::{ChunkStore, Counter, Role};
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, printed with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("dense_wall_s", "s"),
    ("slowdown_vs_dense", "x"),
    ("qubits_gained", "qubits"),
];

/// Per-layer metrics, `(name, unit)`, printed by the traced run. Clocks
/// labelled `modeled_s` come from the device model, never from the wall.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("plan.build_s", "s"),
    ("plan.stages", "count"),
    ("plan.chunk_visits", "count"),
    ("store.load_calls", "count"),
    ("store.store_calls", "count"),
    ("store.load_s", "s"),
    ("store.store_s", "s"),
    ("store.self_s", "s"),
    ("store.peak_resident_bytes", "bytes"),
    ("store.ratio_end", "x"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.encode_gib_s", "GiB/s"),
    ("codec.decode_gib_s", "GiB/s"),
    ("codec.ratio", "x"),
    ("codec.picks.zero_rle", "count"),
    ("codec.picks.fpc", "count"),
    ("codec.picks.shuffle_lzss", "count"),
    ("codec.picks.sz", "count"),
    ("codec.lossy_encodes", "count"),
    ("apply.busy_s", "s"),
    ("apply.gates", "count"),
    ("apply.scalars", "count"),
    ("apply.gate_amps_per_s", "amps/s"),
    ("apply.specialize_s", "s"),
    ("device.real_s", "s"),
    ("device.modeled_makespan_s", "modeled_s"),
    ("device.modeled_h2d_s", "modeled_s"),
    ("device.modeled_kernel_s", "modeled_s"),
    ("device.modeled_d2h_s", "modeled_s"),
    ("device.commands", "count"),
    ("device.bytes_h2d", "bytes"),
    ("device.bytes_d2h", "bytes"),
    ("device.pinned_bytes", "bytes"),
    ("engine.run_s", "s"),
    ("engine.unattributed_s", "s"),
    ("engine.unattributed_frac", "frac"),
    ("engine.role_overlap_s", "s"),
    ("engine.peak_buffer_bytes", "bytes"),
    ("measure.readout_s", "s"),
    ("measure.chunk_loads", "count"),
    ("measure.useful_load_frac", "frac"),
    ("dense.run_s", "s"),
    ("dense.gate_amps_per_s", "amps/s"),
    ("trace.overhead_frac", "frac"),
];

/// The per-layer figures of one traced repetition.
pub struct LayerReport {
    /// Values in [`PER_LAYER`] order.
    pub values: Vec<f64>,
    /// Reconciliation of the engine run's wall time.
    pub reconcile_run: String,
    /// Reconciliation of the readout's wall time.
    pub reconcile_readout: String,
    /// Engine role spans on the recorder's clock: `(role, start, end)`.
    pub engine_spans: Vec<(Role, u64, u64)>,
}

/// Busy nanoseconds, call count and bytes over a set of spans.
#[derive(Default)]
struct Tally {
    calls: u64,
    busy_ns: u64,
    raw_bytes: u64,
    coded_bytes: u64,
}

fn tally<'a>(spans: impl Iterator<Item = &'a SpanRec>) -> Tally {
    spans.fold(Tally::default(), |mut t, s| {
        t.calls += 1;
        t.busy_ns += s.duration_ns();
        t.raw_bytes += s.raw_bytes;
        t.coded_bytes += s.coded_bytes;
        t
    })
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `intervals` clipped to `window`, empty ones dropped.
fn clip(intervals: impl Iterator<Item = (u64, u64)>, window: (u64, u64)) -> Vec<(u64, u64)> {
    intervals
        .map(|(lo, hi)| (lo.max(window.0), hi.min(window.1)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Replays `specialize` over every stage x group x gate of the plan.
/// Returns (seconds, gates that apply, gate-amplitudes those gates touch).
fn replay_specialize(prepared: &Prepared) -> (f64, usize, f64) {
    let plan = &prepared.plan;
    let t = Instant::now();
    let mut applied = 0usize;
    let mut gate_amps = 0f64;
    for stage in &plan.stages {
        for group in chunk_groups(plan.n_qubits, plan.chunk_bits, stage) {
            let ctx = GroupContext {
                chunk_bits: plan.chunk_bits,
                high: &stage.high_qubits,
                base_chunk: group[0],
            };
            let amps = (group.len() << plan.chunk_bits) as f64;
            for gate in &stage.gates {
                if let Specialized::Apply(_) = black_box(specialize(gate, &ctx)) {
                    applied += 1;
                    gate_amps += amps;
                }
            }
        }
    }
    (t.elapsed().as_secs_f64(), applied, gate_amps)
}

/// Computes every [`PER_LAYER`] metric for one traced repetition.
///
/// `untraced_wall_s` is the median time to answer of the untraced
/// repetitions of the same run; `plan_build_s` the median `build_plan`
/// time over their set-ups.
pub fn analyse(
    inputs: &Inputs,
    prepared: &Prepared,
    side: &EngineSide,
    dense: &DenseSide,
    rec: &Recorder,
    untraced_wall_s: f64,
    plan_build_s: f64,
) -> LayerReport {
    let report = &side.report;
    let telemetry = &report.telemetry;
    let spans = rec.spans();
    let store = &prepared.store;

    let loads = tally(
        spans
            .iter()
            .filter(|s| matches!(s.layer, Layer::Load | Layer::LoadPayload)),
    );
    let stores = tally(
        spans
            .iter()
            .filter(|s| matches!(s.layer, Layer::Store | Layer::StorePayload | Layer::Swap)),
    );
    let encode = tally(spans.iter().filter(|s| s.layer == Layer::Encode));
    let decode = tally(spans.iter().filter(|s| s.layer == Layer::Decode));
    let readout_loads = spans
        .iter()
        .filter(|s| s.phase == Phase::Readout && s.layer == Layer::Load)
        .count() as f64;
    let store_self_ns =
        (loads.busy_ns + stores.busy_ns).saturating_sub(encode.busy_ns + decode.busy_ns);

    // Engine role spans on the recorder clock.
    let engine_spans: Vec<(Role, u64, u64)> = telemetry
        .spans()
        .iter()
        .map(|s| {
            (
                s.role,
                rec.engine_to_recorder_ns(s.start_ns),
                rec.engine_to_recorder_ns(s.end_ns),
            )
        })
        .collect();
    let role = |roles: &[Role], window: (u64, u64)| {
        let hits = engine_spans.iter().filter(|(r, _, _)| roles.contains(r));
        clip(hits.map(|&(_, lo, hi)| (lo, hi)), window)
    };
    let wrapper = |phase: Phase, codec: bool, window: (u64, u64)| {
        let hits = spans
            .iter()
            .filter(|s| s.phase == phase && s.layer.is_codec() == codec);
        clip(hits.map(|s| (s.start_ns, s.end_ns)), window)
    };

    // Engine run: innermost layer first, so nested time goes to the
    // layer that did the work.
    let run = side.run_window_ns;
    let run_wall_ns = run.1 - run.0;
    let run_layers = [
        wrapper(Phase::Run, true, run),
        wrapper(Phase::Run, false, run),
        role(&[Role::CpuApply], run),
        role(&[Role::DeviceIssue], run),
        role(&[Role::Decompress, Role::Recompress], run),
    ];
    let shares = waterfall_ns(&run_layers);
    let covered: u64 = shares.iter().sum();
    let unattributed_ns = run_wall_ns.saturating_sub(covered);
    let reconcile_run = format!(
        "RECONCILE run: wall {:.4} s = codec {:.4} + store self {:.4} + apply {:.4} + device issue {:.4} + engine roles {:.4} + unattributed {:.4} ({:.2}% of wall) | engine role overlap {:.4} s | device real on its own thread {:.4} s",
        secs(run_wall_ns),
        secs(shares[0]),
        secs(shares[1]),
        secs(shares[2]),
        secs(shares[3]),
        secs(shares[4]),
        secs(unattributed_ns),
        100.0 * ratio(unattributed_ns as f64, run_wall_ns as f64),
        telemetry.overlap().as_secs_f64(),
        report.device.real.as_secs_f64(),
    );

    // Readout: the same split over the readout window.
    let readout = (run.1, run.1 + (side.readout_s * 1e9) as u64);
    let readout_layers = [
        wrapper(Phase::Readout, true, readout),
        wrapper(Phase::Readout, false, readout),
    ];
    let rshares = waterfall_ns(&readout_layers);
    let readout_ns = readout.1 - readout.0;
    let reconcile_readout = format!(
        "RECONCILE readout: wall {:.4} s = codec {:.4} + store self {:.4} + measure self {:.4} | {} chunk loads for {} chunks",
        secs(readout_ns),
        secs(rshares[0]),
        secs(rshares[1]),
        secs(readout_ns.saturating_sub(rshares.iter().sum())),
        readout_loads,
        store.chunk_count(),
    );

    let (specialize_s, replay_gates, gate_amps) = replay_specialize(prepared);
    let reconcile_run = format!(
        "{reconcile_run} | specialize replay: {replay_gates} gates apply, engine applied {}",
        report.gates_applied
    );
    let apply_busy = report.cpu_apply.as_secs_f64();
    let dense_gate_amps = inputs.circuit.len() as f64 * (1u64 << inputs.circuit.n_qubits()) as f64;
    let device = &report.device;
    let counter = |c: Counter| telemetry.counter(c) as f64;

    let values = vec![
        plan_build_s,
        prepared.plan.stages.len() as f64,
        prepared.plan.chunk_visits() as f64,
        loads.calls as f64,
        stores.calls as f64,
        secs(loads.busy_ns),
        secs(stores.busy_ns),
        secs(store_self_ns),
        report.peak_resident_bytes as f64,
        store.current_ratio(),
        secs(encode.busy_ns),
        secs(decode.busy_ns),
        ratio(
            encode.raw_bytes as f64 / (1u64 << 30) as f64,
            secs(encode.busy_ns),
        ),
        ratio(
            decode.raw_bytes as f64 / (1u64 << 30) as f64,
            secs(decode.busy_ns),
        ),
        ratio(encode.raw_bytes as f64, encode.coded_bytes as f64),
        counter(Counter::CodecPicksZeroRle),
        counter(Counter::CodecPicksFpc),
        counter(Counter::CodecPicksShuffleLzss),
        counter(Counter::CodecPicksSz),
        counter(Counter::LossyEncodes),
        apply_busy,
        report.gates_applied as f64,
        report.scalars_applied as f64,
        ratio(gate_amps, apply_busy),
        specialize_s,
        device.real.as_secs_f64(),
        device.modeled.as_secs_f64(),
        device.modeled_h2d.as_secs_f64(),
        device.modeled_kernel.as_secs_f64(),
        device.modeled_d2h.as_secs_f64(),
        device.commands as f64,
        device.bytes_h2d as f64,
        device.bytes_d2h as f64,
        report.pinned_bytes as f64,
        secs(run_wall_ns),
        secs(unattributed_ns),
        ratio(unattributed_ns as f64, run_wall_ns as f64),
        telemetry.overlap().as_secs_f64(),
        report.peak_buffer_bytes as f64,
        side.readout_s,
        readout_loads,
        ratio(store.chunk_count() as f64, readout_loads),
        dense.run_s,
        ratio(dense_gate_amps, dense.run_s),
        ratio(side.run_s + side.readout_s, untraced_wall_s) - 1.0,
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    LayerReport {
        values,
        reconcile_run,
        reconcile_readout,
        engine_spans,
    }
}
