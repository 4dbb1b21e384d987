//! Benchmark-side tracing: timing wrappers around the public `Codec` and
//! `ChunkStore` traits, an in-memory span record, and the interval
//! arithmetic that turns spans into per-layer self times.
//!
//! Nothing here changes library code. The traced store stack is the one
//! `build_store` assembles for the benchmark's configurations
//! (`TelemetryTier` over `CompressedTier`), with a [`TimedCodec`] inside
//! the tier and a [`TimedStore`] outermost. Both wrappers forward every
//! trait method, so a traced run computes exactly what an untraced one
//! does (see `tests/transparency.rs`).

use memqsim_core::config::{MemQSimConfig, StoreKind};
use memqsim_core::store::{ChunkStore, CompressedTier, StoreCounters, TelemetryTier};
use memqsim_core::Telemetry;
use mq_compress::{Codec, CodecError, CompressionStats, PayloadMeta};
use mq_num::Complex64;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ChunkStore::load_chunk`.
    Load,
    /// `ChunkStore::store_chunk`.
    Store,
    /// `ChunkStore::load_chunk_payload`.
    LoadPayload,
    /// `ChunkStore::store_chunk_payload`.
    StorePayload,
    /// `ChunkStore::swap_chunks`.
    Swap,
    /// `Codec::compress`.
    Encode,
    /// `Codec::decompress`.
    Decode,
}

impl Layer {
    /// True for the `Codec` boundaries, false for the `ChunkStore` ones.
    pub fn is_codec(self) -> bool {
        matches!(self, Layer::Encode | Layer::Decode)
    }

    fn label(self) -> &'static str {
        match self {
            Layer::Load => "store.load",
            Layer::Store => "store.store",
            Layer::LoadPayload => "store.load_payload",
            Layer::StorePayload => "store.store_payload",
            Layer::Swap => "store.swap",
            Layer::Encode => "codec.encode",
            Layer::Decode => "codec.decode",
        }
    }
}

/// Which part of a repetition a span belongs to. Spans are recorded only
/// while the phase is not [`Phase::Idle`], so set-up (encoding the zero
/// state) and the correctness check stay out of the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Not recording.
    Idle = 0,
    /// The engine run.
    Run = 1,
    /// The readout (sampling or expectation values).
    Readout = 2,
}

/// One recorded call: layer, phase, thread, interval on the recorder's
/// clock, and the raw (amplitude) and coded (payload) bytes it handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub layer: Layer,
    pub phase: Phase,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub raw_bytes: u64,
    pub coded_bytes: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The in-memory span record shared by both wrappers.
pub struct Recorder {
    epoch: Instant,
    phase: AtomicU8,
    spans: Mutex<Vec<SpanRec>>,
    /// Recorder clock minus the engine telemetry clock, captured when the
    /// engine attaches its telemetry handle to the store.
    engine_offset_ns: AtomicI64,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            phase: AtomicU8::new(Phase::Idle as u8),
            spans: Mutex::new(Vec::new()),
            engine_offset_ns: AtomicI64::new(0),
        })
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::SeqCst);
    }

    fn phase(&self) -> Phase {
        match self.phase.load(Ordering::SeqCst) {
            1 => Phase::Run,
            2 => Phase::Readout,
            _ => Phase::Idle,
        }
    }

    /// Converts an engine telemetry timestamp to the recorder's clock.
    pub fn engine_to_recorder_ns(&self, engine_ns: u64) -> u64 {
        (engine_ns as i64 + self.engine_offset_ns.load(Ordering::SeqCst)).max(0) as u64
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span record lock poisoned")
            .clone()
    }

    /// Runs `f` under a span for `layer`. `f` returns its result plus the
    /// raw and coded byte counts of the call.
    fn record<R>(&self, layer: Layer, f: impl FnOnce() -> (R, u64, u64)) -> R {
        let phase = self.phase();
        if phase == Phase::Idle {
            return f().0;
        }
        let start_ns = self.now_ns();
        let (result, raw_bytes, coded_bytes) = f();
        let end_ns = self.now_ns();
        let span = SpanRec {
            layer,
            phase,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
            raw_bytes,
            coded_bytes,
        };
        self.spans
            .lock()
            .expect("span record lock poisoned")
            .push(span);
        result
    }

    /// Writes the span record as tab-separated lines (one header line).
    pub fn write_tsv(&self, mut out: impl std::io::Write) -> std::io::Result<()> {
        writeln!(
            out,
            "layer\tphase\tthread\tstart_ns\tend_ns\traw_bytes\tcoded_bytes"
        )?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.layer.label(),
                s.phase as u8,
                s.thread,
                s.start_ns,
                s.end_ns,
                s.raw_bytes,
                s.coded_bytes
            )?;
        }
        out.flush()
    }
}

/// Times every `compress` / `decompress` call of the wrapped codec.
pub struct TimedCodec {
    inner: Box<dyn Codec>,
    rec: Arc<Recorder>,
}

impl TimedCodec {
    pub fn new(inner: Box<dyn Codec>, rec: Arc<Recorder>) -> TimedCodec {
        TimedCodec { inner, rec }
    }
}

impl Codec for TimedCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_lossless(&self) -> bool {
        self.inner.is_lossless()
    }

    fn error_bound(&self) -> Option<f64> {
        self.inner.error_bound()
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        self.rec.record(Layer::Encode, || {
            let out = self.inner.compress(data);
            let coded = out.len() as u64;
            (out, (data.len() * 8) as u64, coded)
        })
    }

    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        self.rec.record(Layer::Decode, || {
            let raw = (out.len() * 8) as u64;
            (self.inner.decompress(bytes, out), raw, bytes.len() as u64)
        })
    }

    fn payload_meta(&self, payload: &[u8]) -> Option<PayloadMeta> {
        self.inner.payload_meta(payload)
    }

    fn set_dynamic_bound(&self, eb: Option<f64>) -> bool {
        self.inner.set_dynamic_bound(eb)
    }
}

/// Times every chunk-moving call of the wrapped store and forwards the
/// rest unchanged.
pub struct TimedStore {
    inner: Arc<dyn ChunkStore>,
    rec: Arc<Recorder>,
}

const AMP_BYTES: u64 = std::mem::size_of::<Complex64>() as u64;

impl ChunkStore for TimedStore {
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
        let raw = out.len() as u64 * AMP_BYTES;
        self.rec
            .record(Layer::Load, || (self.inner.load_chunk(i, out), raw, 0))
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        let raw = amps.len() as u64 * AMP_BYTES;
        self.rec
            .record(Layer::Store, || (self.inner.store_chunk(i, amps), raw, 0))
    }

    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        self.rec.record(Layer::LoadPayload, || {
            let result = self.inner.load_chunk_payload(i);
            let coded = match &result {
                Ok(Some(p)) => p.len() as u64,
                _ => 0,
            };
            (result, 0, coded)
        })
    }

    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        let coded = payload.len() as u64;
        self.rec.record(Layer::StorePayload, || {
            (self.inner.store_chunk_payload(i, payload), 0, coded)
        })
    }

    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        self.rec
            .record(Layer::Swap, || (self.inner.swap_chunks(i, j), 0, 0))
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

    /// Also learns the engine telemetry clock, so engine role spans and
    /// wrapper spans can be laid on one timeline.
    fn attach_telemetry(&self, telemetry: Telemetry) {
        let offset = self.rec.now_ns() as i64 - telemetry.now_ns() as i64;
        self.rec.engine_offset_ns.store(offset, Ordering::SeqCst);
        self.inner.attach_telemetry(telemetry)
    }

    fn detach_telemetry(&self) {
        self.inner.detach_telemetry()
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.inner.set_error_allowance(eb)
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        self.inner.debug_corrupt_chunk(i)
    }
}

/// Builds the `|0...0>` store stack `build_store` would build for `cfg`,
/// with the two timing wrappers added.
///
/// # Panics
/// Panics for configurations whose `build_store` stack has other tiers
/// (a residency cache, a dense or spill base), which this mirror does not
/// reproduce.
pub fn traced_store(
    n_qubits: u32,
    cfg: &MemQSimConfig,
    rec: &Arc<Recorder>,
) -> Arc<dyn ChunkStore> {
    assert!(
        cfg.store_kind == StoreKind::Compressed && cfg.cache_bytes == 0,
        "the traced stack mirrors only TelemetryTier over CompressedTier"
    );
    let codec = TimedCodec::new(
        cfg.codec.build_with_precision(cfg.precision),
        Arc::clone(rec),
    );
    let base = CompressedTier::zero_state(
        n_qubits,
        cfg.effective_chunk_bits(n_qubits),
        Arc::new(codec),
    );
    Arc::new(TimedStore {
        inner: Arc::new(TelemetryTier::new(Arc::new(base))),
        rec: Arc::clone(rec),
    })
}

// --- interval arithmetic ----------------------------------------------------

/// Merges intervals in place into sorted, disjoint ones.
fn merge(intervals: &mut Vec<(u64, u64)>) {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for &(lo, hi) in intervals.iter() {
        match merged.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    *intervals = merged;
}

/// Splits the union of all layers' intervals into per-layer shares,
/// innermost layer first: each layer is credited with the wall time its
/// spans cover that no earlier layer covered. The shares sum to the
/// union, so `window - sum` is the time no span explains.
pub fn waterfall_ns(layers: &[Vec<(u64, u64)>]) -> Vec<u64> {
    let mut covered: Vec<(u64, u64)> = Vec::new();
    let mut before = 0u64;
    layers
        .iter()
        .map(|layer| {
            covered.extend_from_slice(layer);
            merge(&mut covered);
            let now: u64 = covered.iter().map(|&(lo, hi)| hi - lo).sum();
            let share = now - before;
            before = now;
            share
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waterfall_merges_overlaps_and_keeps_gaps() {
        assert_eq!(waterfall_ns(&[vec![(0, 10), (5, 15), (20, 25)]]), vec![20]);
        assert_eq!(waterfall_ns(&[vec![]]), vec![0]);
    }

    #[test]
    fn waterfall_credits_nested_time_to_the_inner_layer() {
        // Inner [2,4) nested in outer [0,10); a second outer span [12,13).
        let shares = waterfall_ns(&[vec![(2, 4)], vec![(0, 10), (12, 13)]]);
        assert_eq!(shares, vec![2, 9]);
    }

    #[test]
    fn recorder_skips_idle_phase() {
        let rec = Recorder::new();
        assert_eq!(rec.record(Layer::Load, || (7, 1, 2)), 7);
        assert!(rec.spans().is_empty());
        rec.set_phase(Phase::Run);
        rec.record(Layer::Load, || ((), 1, 2));
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].raw_bytes, spans[0].coded_bytes), (1, 2));
        assert_eq!(spans[0].phase, Phase::Run);
    }
}
