//! Golden wire-format test: pins the exact payload bytes and decoded bits of
//! every codec on fixed inputs.
//!
//! Payloads travel verbatim through payload passthrough, the residency
//! cache, spill files and device transfers, so a payload written by one
//! build must decode identically in another. Any change to a codec's speed
//! (bit I/O, Huffman tables, frequency counting) must leave these hashes
//! untouched. A deliberate format change has to update the table, and the
//! failure message prints the regenerated table for that purpose.
//!
//! Inputs are built from integer hashing and IEEE basic arithmetic only (no
//! platform `sin`/`cos`), so they are bit-identical on every target.

use mq_compress::{compress_complex, decompress_complex, CodecSpec};
use mq_num::Complex64;

/// Amplitudes per input chunk (2^12 complex = two 4096-value f64 planes).
const AMPS: usize = 1 << 12;

/// Codecs under test, in the registry's own spelling.
const CODECS: [&str; 9] = [
    "null",
    "zero-rle",
    "fpc",
    "shuffle-lzss",
    "sz:1e-4",
    "sz:2.4e-6",
    "sz:1e-9",
    "auto",
    "auto:2.4e-6",
];

/// `(input, codec, payload length, FNV-1a of payload, FNV-1a of decoded bits)`.
const GOLDEN: &[(&str, &str, usize, u64, u64)] = &[
    (
        "qaoa",
        "null",
        65538,
        0xd32fe1315baf850e,
        0x94fdba43a19a8066,
    ),
    (
        "qaoa",
        "zero-rle",
        65541,
        0x6bc5e4cb714814fc,
        0x94fdba43a19a8066,
    ),
    ("qaoa", "fpc", 32888, 0xfc0a215efcee56e7, 0x94fdba43a19a8066),
    (
        "qaoa",
        "shuffle-lzss",
        3326,
        0x6a83ccf4d1532e31,
        0x94fdba43a19a8066,
    ),
    (
        "qaoa",
        "sz:1e-4",
        2186,
        0xa2d77ad4f4fc82de,
        0x0e4bb850b367be09,
    ),
    (
        "qaoa",
        "sz:2.4e-6",
        2535,
        0xb3612f5c309df6b9,
        0x3c73357458b72143,
    ),
    (
        "qaoa",
        "sz:1e-9",
        27071,
        0xdac9ab6b289314ca,
        0x4db31ecc79aaac95,
    ),
    ("qaoa", "auto", 3327, 0xebd9995690a182df, 0x94fdba43a19a8066),
    (
        "qaoa",
        "auto:2.4e-6",
        2536,
        0x45cc3f919b6a0e28,
        0x3c73357458b72143,
    ),
    ("qft", "null", 65538, 0x1c8808f065622304, 0x28b93988ccbcb708),
    (
        "qft",
        "zero-rle",
        65541,
        0x9834db98d204958a,
        0x28b93988ccbcb708,
    ),
    ("qft", "fpc", 61760, 0x3291e597953870a9, 0x28b93988ccbcb708),
    (
        "qft",
        "shuffle-lzss",
        56485,
        0x83211fb138c2b55a,
        0x28b93988ccbcb708,
    ),
    (
        "qft",
        "sz:1e-4",
        2984,
        0x84ed31a56df50aaf,
        0x0021b32986bfba70,
    ),
    (
        "qft",
        "sz:2.4e-6",
        8347,
        0xc8e11d4e0ac26ce8,
        0x8047580ef80311fb,
    ),
    (
        "qft",
        "sz:1e-9",
        63990,
        0x9c56d7b9c5ad5824,
        0xe25b97c2a35f5e20,
    ),
    ("qft", "auto", 61761, 0xb2f01a06bafa4189, 0x28b93988ccbcb708),
    (
        "qft",
        "auto:2.4e-6",
        8348,
        0x3feca2d54604cea1,
        0x8047580ef80311fb,
    ),
    (
        "smooth",
        "null",
        65538,
        0xd559c76abc9df475,
        0x05aa0aa6046ecba5,
    ),
    (
        "smooth",
        "zero-rle",
        65536,
        0x0d2492bcd27d0aac,
        0x05aa0aa6046ecba5,
    ),
    (
        "smooth",
        "fpc",
        45188,
        0xaa4984ec91f6206f,
        0x05aa0aa6046ecba5,
    ),
    (
        "smooth",
        "shuffle-lzss",
        55307,
        0x9d0f74db4d01d459,
        0x05aa0aa6046ecba5,
    ),
    (
        "smooth",
        "sz:1e-4",
        1117,
        0xf886746605b9ad66,
        0x32a37a60d2971ab1,
    ),
    (
        "smooth",
        "sz:2.4e-6",
        3239,
        0xdaa650f3ae452155,
        0xb86ac670d820cd28,
    ),
    (
        "smooth",
        "sz:1e-9",
        26499,
        0xba69958a10208482,
        0xe167feecab637ca5,
    ),
    (
        "smooth",
        "auto",
        45189,
        0x37503863425c804f,
        0x05aa0aa6046ecba5,
    ),
    (
        "smooth",
        "auto:2.4e-6",
        3240,
        0xabaa344829657de4,
        0xb86ac670d820cd28,
    ),
    (
        "zeros",
        "null",
        65538,
        0x5216e0d5b21097ad,
        0xeb05052ea5b62325,
    ),
    (
        "zeros",
        "zero-rle",
        5,
        0xe7ebe2ffcab9d6cf,
        0xeb05052ea5b62325,
    ),
    ("zeros", "fpc", 4100, 0x21133e39fa5f26d5, 0xeb05052ea5b62325),
    (
        "zeros",
        "shuffle-lzss",
        800,
        0x5604419d6cd17ac7,
        0xeb05052ea5b62325,
    ),
    (
        "zeros",
        "sz:1e-4",
        17,
        0x422d7dcf489b0673,
        0xeb05052ea5b62325,
    ),
    (
        "zeros",
        "sz:2.4e-6",
        17,
        0x97383442cdf559e3,
        0xeb05052ea5b62325,
    ),
    (
        "zeros",
        "sz:1e-9",
        17,
        0x1f345a5666d88b38,
        0xeb05052ea5b62325,
    ),
    ("zeros", "auto", 6, 0x00312bede2ab2d04, 0xeb05052ea5b62325),
    (
        "zeros",
        "auto:2.4e-6",
        6,
        0x00312bede2ab2d04,
        0xeb05052ea5b62325,
    ),
    (
        "outliers",
        "null",
        65538,
        0x9472eda54643444a,
        0x5413a2018f42d59e,
    ),
    (
        "outliers",
        "zero-rle",
        65536,
        0x54b72494fee27dc7,
        0x5413a2018f42d59e,
    ),
    (
        "outliers",
        "fpc",
        45461,
        0xfc3d7fc902b9261c,
        0x5413a2018f42d59e,
    ),
    (
        "outliers",
        "shuffle-lzss",
        55665,
        0xf2a39340fb224537,
        0x5413a2018f42d59e,
    ),
    (
        "outliers",
        "sz:1e-4",
        1552,
        0xbc6326cfc5d1f088,
        0x897647324e9fc38e,
    ),
    (
        "outliers",
        "sz:2.4e-6",
        3724,
        0xd2f42458bf49240c,
        0xa224a40cceff8417,
    ),
    (
        "outliers",
        "sz:1e-9",
        27024,
        0x0aaa4785716168c4,
        0xd8b7c1ceebe3a1ce,
    ),
    (
        "outliers",
        "auto",
        45462,
        0x32b936e08ce768bc,
        0x5413a2018f42d59e,
    ),
    (
        "outliers",
        "auto:2.4e-6",
        3725,
        0x009ab1de81622c43,
        0xa224a40cceff8417,
    ),
];

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64: a fixed, portable pseudo-random stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `(cos t, sin t)` from a fixed Taylor polynomial: basic IEEE operations
/// only, so every platform produces the same bits.
fn cis(t: f64) -> (f64, f64) {
    let two_pi = 2.0 * std::f64::consts::PI;
    let t = t - two_pi * (t / two_pi).round();
    let (mut c, mut s) = (0.0f64, 0.0f64);
    let mut term = 1.0f64;
    for k in 0..30u32 {
        match k % 4 {
            0 => c += term,
            1 => s += term,
            2 => c -= term,
            _ => s -= term,
        }
        term = term * t / (k + 1) as f64;
    }
    (c, s)
}

/// Chunk 5 of a 20-qubit QAOA-like state: phases from the cut value of a
/// ring graph, magnitudes mildly skewed toward large cuts.
fn qaoa_like() -> Vec<Complex64> {
    let n = 20u32;
    let base = 5usize * AMPS;
    let norm = 1.0 / ((1u64 << n) as f64).sqrt();
    (0..AMPS)
        .map(|off| {
            let x = base + off;
            let cut = (0..n)
                .filter(|&q| ((x >> q) ^ (x >> ((q + 1) % n))) & 1 == 1)
                .count() as f64;
            let mag = norm * (1.0 + 0.3 * (cut - n as f64 / 2.0) / n as f64);
            let (c, s) = cis(-0.7 * cut);
            Complex64::new(mag * c, mag * s)
        })
        .collect()
}

/// Chunk 3 of the 18-qubit QFT of a basis state: equal magnitudes with a
/// linear phase ramp.
fn qft_like() -> Vec<Complex64> {
    let n = 18u32;
    let big_n = (1u64 << n) as f64;
    let mag = 1.0 / big_n.sqrt();
    let x = 12_345.0f64;
    (0..AMPS)
        .map(|off| {
            let k = (3 * AMPS + off) as f64;
            let (c, s) = cis(2.0 * std::f64::consts::PI * ((x * k) % big_n) / big_n);
            Complex64::new(mag * c, mag * s)
        })
        .collect()
}

/// A slowly varying signal with a little seeded noise.
fn smooth() -> Vec<Complex64> {
    let mut rng = Mix(17);
    (0..AMPS)
        .map(|i| {
            let (c, s) = cis(i as f64 * 1e-3);
            Complex64::new(0.01 * c + 1e-9 * rng.unit(), 0.02 * s)
        })
        .collect()
}

fn zeros() -> Vec<Complex64> {
    vec![Complex64::ZERO; AMPS]
}

/// Smooth data with NaN, ±inf and huge values sprinkled at seeded places.
fn outliers() -> Vec<Complex64> {
    let mut v = smooth();
    let mut rng = Mix(99);
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e-300];
    for k in 0..40 {
        let i = (rng.next() % AMPS as u64) as usize;
        let x = specials[k % specials.len()];
        if rng.next() & 1 == 0 {
            v[i].re = x;
        } else {
            v[i].im = x;
        }
    }
    v
}

fn inputs() -> Vec<(&'static str, Vec<Complex64>)> {
    vec![
        ("qaoa", qaoa_like()),
        ("qft", qft_like()),
        ("smooth", smooth()),
        ("zeros", zeros()),
        ("outliers", outliers()),
    ]
}

fn measure() -> Vec<(&'static str, &'static str, usize, u64, u64)> {
    let mut rows = Vec::new();
    for (input, amps) in inputs() {
        for spec in CODECS {
            let codec: CodecSpec = spec.parse().expect("registry spelling");
            let codec = codec.build();
            let payload = compress_complex(codec.as_ref(), &amps);
            let mut back = vec![Complex64::ZERO; amps.len()];
            decompress_complex(codec.as_ref(), &payload, &mut back)
                .unwrap_or_else(|e| panic!("{input}/{spec}: decode failed: {e}"));
            rows.push((
                input,
                spec,
                payload.len(),
                fnv1a(payload.iter().copied()),
                amp_bits(&back),
            ));
        }
    }
    rows
}

#[test]
fn payload_bytes_and_decoded_bits_are_pinned() {
    let got = measure();
    if got.as_slice() != GOLDEN {
        let mut table = String::new();
        for (input, spec, len, payload, decoded) in &got {
            table.push_str(&format!(
                "    (\"{input}\", \"{spec}\", {len}, 0x{payload:016x}, 0x{decoded:016x}),\n"
            ));
        }
        let first = got
            .iter()
            .zip(GOLDEN)
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("got {g:?}, pinned {w:?}"))
            .unwrap_or_else(|| format!("{} rows, {} pinned", got.len(), GOLDEN.len()));
        panic!("codec wire format drifted ({first}); measured table:\n{table}");
    }
}

/// `(input, FNV-1a of its amplitude bits)`: guards the generators above, so
/// a drifting input is reported as such rather than as a codec change.
const INPUT_HASHES: &[(&str, u64)] = &[
    ("qaoa", 0x94fdba43a19a8066),
    ("qft", 0x28b93988ccbcb708),
    ("smooth", 0x05aa0aa6046ecba5),
    ("zeros", 0xeb05052ea5b62325),
    ("outliers", 0x5413a2018f42d59e),
];

fn amp_bits(amps: &[Complex64]) -> u64 {
    fnv1a(
        amps.iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .flat_map(u64::to_le_bytes),
    )
}

#[test]
fn inputs_are_pinned() {
    let got: Vec<(&str, u64)> = inputs().iter().map(|(n, v)| (*n, amp_bits(v))).collect();
    assert_eq!(
        got.as_slice(),
        INPUT_HASHES,
        "test inputs drifted: {got:x?}"
    );
}
