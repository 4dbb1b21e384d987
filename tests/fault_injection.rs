//! Fault injection: a store whose `load_chunk` panics mid-run. Every
//! engine must turn the panic into `EngineError::WorkerPanicked` within
//! bounded time — no hang, no panic crossing into the caller — and leave
//! the store readable afterwards.

use memqsim_core::engine::{cpu, hybrid, Granularity, RunReport};
use memqsim_core::{build_store, ChunkStore, EngineError, MemQSimConfig, StoreCounters, Telemetry};
use memqsim_suite::device::Device;
use memqsim_suite::{circuit::library, CodecSpec, DeviceSpec};
use mq_compress::{CodecError, CompressionStats};
use mq_num::Complex64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The qft(8) run at chunk_bits 3 loads 32 chunks per stage; the fault
/// lands mid-stage, after some groups have already been written back.
const PANIC_ON_LOAD: usize = 10;

/// Middleware that panics on the `panic_on`-th `load_chunk` call (once)
/// and forwards everything else to the wrapped stack.
struct PanicOnLoad {
    inner: Arc<dyn ChunkStore>,
    loads: AtomicUsize,
    panic_on: usize,
}

impl ChunkStore for PanicOnLoad {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn n_qubits(&self) -> u32 {
        self.inner.n_qubits()
    }
    fn chunk_bits(&self) -> u32 {
        self.inner.chunk_bits()
    }
    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        let n = self.loads.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.panic_on {
            panic!("injected panic on load {n} (chunk {i})");
        }
        self.inner.load_chunk(i, out)
    }
    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        self.inner.store_chunk(i, amps)
    }
    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        self.inner.load_chunk_payload(i)
    }
    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        self.inner.store_chunk_payload(i, payload)
    }
    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        self.inner.swap_chunks(i, j)
    }
    fn flush(&self) -> Result<(), CodecError> {
        self.inner.flush()
    }
    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
    fn peak_state_bytes(&self) -> usize {
        self.inner.peak_state_bytes()
    }
    fn peak_resident_bytes(&self) -> usize {
        self.inner.peak_resident_bytes()
    }
    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }
    fn cumulative_stats(&self) -> CompressionStats {
        self.inner.cumulative_stats()
    }
    fn resident_chunks(&self) -> Vec<usize> {
        self.inner.resident_chunks()
    }
    fn attach_telemetry(&self, telemetry: Telemetry) {
        self.inner.attach_telemetry(telemetry)
    }
    fn detach_telemetry(&self) {
        self.inner.detach_telemetry()
    }
    fn set_error_allowance(&self, eb: Option<f64>) {
        self.inner.set_error_allowance(eb)
    }
}

fn cfg(workers: usize) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers,
        ..Default::default()
    }
}

/// Runs `engine` on a faulty qft(8) store in a separate thread and waits
/// at most 10 s for it. Returns the run's result and whether the store
/// still decodes whole afterwards.
fn run_with_fault<F>(config: MemQSimConfig, engine: F) -> (Result<RunReport, EngineError>, bool)
where
    F: FnOnce(&Arc<dyn ChunkStore>, &MemQSimConfig) -> Result<RunReport, EngineError>
        + Send
        + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let store: Arc<dyn ChunkStore> = Arc::new(PanicOnLoad {
            inner: build_store(8, &config).expect("store"),
            loads: AtomicUsize::new(0),
            panic_on: PANIC_ON_LOAD,
        });
        let result = engine(&store, &config);
        let readable = store.to_dense().is_ok();
        let _ = tx.send((result, readable));
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("run did not return within 10 s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the panic crossed into the caller"),
    }
}

fn assert_worker_panicked(tag: &str, (result, readable): (Result<RunReport, EngineError>, bool)) {
    match result {
        Err(EngineError::WorkerPanicked(msg)) => {
            assert!(!msg.is_empty(), "{tag}: empty panic message")
        }
        other => panic!("{tag}: expected WorkerPanicked, got {other:?}"),
    }
    assert!(readable, "{tag}: store no longer decodes after the fault");
}

#[test]
fn cpu_run_turns_a_worker_panic_into_a_typed_error() {
    for workers in [1usize, 2] {
        let outcome = run_with_fault(cfg(workers), |store, config| {
            cpu::run(store, &library::qft(8), config, Granularity::Staged)
        });
        assert_worker_panicked(&format!("cpu, {workers} workers"), outcome);
    }
}

#[test]
fn hybrid_run_turns_a_producer_panic_into_a_typed_error() {
    for pipelined in [false, true] {
        let outcome = run_with_fault(cfg(1), move |store, config| {
            let device = Device::new(DeviceSpec::tiny_test(1 << 16));
            hybrid::run(store, &library::qft(8), config, &device, pipelined)
        });
        assert_worker_panicked(&format!("hybrid, pipelined {pipelined}"), outcome);
    }
}
