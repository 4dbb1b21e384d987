//! The timing wrappers must be invisible to the computation: a traced
//! repetition gives the same final state bits, the same answer and the
//! same engine counts as an untraced one. A wrapper that dropped
//! `set_error_allowance`, `set_dynamic_bound` or `payload_meta` would
//! silently turn off the fidelity budget or the pick accounting and show
//! up here as different codec picks, lossy encodes or error ledgers; one
//! that dropped the payload or swap methods fails the fast-path test.

use memqsim_core::store::build_store;
use memqsim_core::{ChunkStore, Counter, RunReport};
use perfbench::trace::{traced_store, Recorder};
use perfbench::workload::{setup, time_to_answer, Inputs, Workload};

const SEED: u64 = 7;

fn bits(store: &dyn ChunkStore) -> Vec<(u64, u64)> {
    store
        .to_dense()
        .expect("store is readable")
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn traced_matches_untraced(workload: Workload) -> RunReport {
    let inputs = Inputs::generate(workload, SEED);
    let plain = setup(&inputs, None).expect("untraced set-up");
    let a = time_to_answer(&inputs, &plain, None).expect("untraced run");
    let rec = Recorder::new();
    let traced = setup(&inputs, Some(&rec)).expect("traced set-up");
    let b = time_to_answer(&inputs, &traced, Some(&rec)).expect("traced run");

    assert!(!rec.spans().is_empty(), "the wrappers recorded nothing");
    if workload.lossless() {
        assert!(
            bits(&*plain.store) == bits(&*traced.store),
            "final state bits differ"
        );
    }
    assert_eq!(a.answer, b.answer, "readout differs");

    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(ra.chunk_visits, rb.chunk_visits);
    assert_eq!(ra.gates_applied, rb.gates_applied);
    assert_eq!(ra.scalars_applied, rb.scalars_applied);
    for counter in [
        Counter::ChunkVisits,
        Counter::BytesCompressed,
        Counter::BytesDecompressed,
        Counter::CodecPicksZeroRle,
        Counter::CodecPicksFpc,
        Counter::CodecPicksShuffleLzss,
        Counter::CodecPicksSz,
        Counter::MixedPrecisionChunks,
        Counter::LossyEncodes,
    ] {
        assert_eq!(
            ra.telemetry.counter(counter),
            rb.telemetry.counter(counter),
            "{counter:?}"
        );
    }
    assert_eq!(ra.telemetry.error_spend(), rb.telemetry.error_spend());
    assert_eq!(ra.error_spent, rb.error_spent);
    assert_eq!(ra.device.commands, rb.device.commands);
    assert_eq!(ra.device.bytes_h2d, rb.device.bytes_h2d);
    assert_eq!(ra.device.bytes_d2h, rb.device.bytes_d2h);
    assert_eq!(plain.store.state_bytes(), traced.store.state_bytes());
    b.report
}

#[test]
fn qft20_cpu_traced_matches_untraced() {
    traced_matches_untraced(Workload::Qft20Cpu);
}

#[test]
fn qaoa20_auto_traced_matches_untraced() {
    let report = traced_matches_untraced(Workload::Qaoa20Auto);
    // The budget must reach the codec through both wrappers: without it
    // no chunk may take a lossy encoding.
    assert!(report.telemetry.counter(Counter::LossyEncodes) > 0);
}

#[test]
fn qft20_hybrid_traced_matches_untraced() {
    traced_matches_untraced(Workload::Qft20Hybrid);
}

#[test]
fn payload_and_swap_fast_paths_survive_the_wrappers() {
    let cfg = Workload::Qft20Cpu.config();
    let n = cfg.chunk_bits + 2;
    let plain = build_store(n, &cfg).expect("store");
    let traced = traced_store(n, &cfg, &Recorder::new());
    for store in [&plain, &traced] {
        let payload = store
            .load_chunk_payload(0)
            .expect("readable")
            .expect("a codec tier hands out payloads");
        assert!(
            store.swap_chunks(0, 1).expect("swap"),
            "swap fast path lost"
        );
        assert!(
            store.store_chunk_payload(0, payload).expect("commit"),
            "payload commit fast path lost"
        );
    }
    assert!(bits(&*plain) == bits(&*traced));
    assert_eq!(plain.counters(), traced.counters());
}
