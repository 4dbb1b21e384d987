//! Canonical Huffman coding.
#![allow(clippy::needless_range_loop)] // length-indexed tables read clearest
//!
//! Built for the SZ-style quantization-code stream: a dense alphabet of at
//! most a few tens of thousands of symbols, heavily skewed toward the center
//! code. Code lengths are depth-limited (frequency halving) so the decoder
//! can use fixed-width tables.
//!
//! The coding stage is table-driven: encode writes a precomputed,
//! bit-reversed code in one [`BitWriter::write_bits`] call, and decode
//! resolves every code of up to 11 bits with one lookup on the next
//! stream bits; only longer codes fall back to a scan over the
//! canonical per-length code ranges. Both produce exactly the bits (and
//! decode errors) of a plain bit-serial coder, so the wire format does not
//! depend on which path ran.

use crate::bitstream::{BitReader, BitWriter, BitstreamOverrun};
use crate::varint;

/// Maximum code length in bits.
pub const MAX_CODE_LEN: u8 = 32;

/// Widest decode table: codes up to this many bits resolve in one lookup.
/// An alphabet whose longest code is shorter gets a table only that wide,
/// so a near-constant chunk does not pay for 2^11 entries per decode.
pub(crate) const TABLE_BITS: u32 = 11;

/// Builds Huffman code lengths for `(symbol, count)` pairs (counts > 0).
/// Returns `(symbol, length)` pairs. A single-symbol alphabet gets length 1.
pub fn build_code_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u8)> {
    assert!(!freqs.is_empty(), "empty alphabet");
    debug_assert!(freqs.iter().all(|&(_, c)| c > 0), "zero-count symbol");
    if freqs.len() == 1 {
        return vec![(freqs[0].0, 1)];
    }
    let mut counts: Vec<u64> = freqs.iter().map(|&(_, c)| c).collect();
    loop {
        let lengths = huffman_lengths(&counts);
        let max = lengths.iter().copied().max().unwrap_or(0);
        if max <= MAX_CODE_LEN {
            return freqs
                .iter()
                .zip(&lengths)
                .map(|(&(s, _), &l)| (s, l))
                .collect();
        }
        // Flatten the distribution and retry.
        for c in &mut counts {
            *c = (*c / 2).max(1);
        }
    }
}

/// Plain Huffman code lengths from counts (parallel array), via the
/// two-queue method on sorted leaves.
fn huffman_lengths(counts: &[u64]) -> Vec<u8> {
    let n = counts.len();
    debug_assert!(n >= 2);
    // Node arena: leaves 0..n, internal nodes after.
    #[derive(Clone, Copy)]
    struct Node {
        weight: u64,
        left: usize,
        right: usize,
    }
    let mut nodes: Vec<Node> = counts
        .iter()
        .map(|&w| Node {
            weight: w,
            left: usize::MAX,
            right: usize::MAX,
        })
        .collect();
    // Sorted leaf queue + FIFO internal queue: O(n log n) for the sort,
    // O(n) for the merge.
    let mut leaves: Vec<usize> = (0..n).collect();
    leaves.sort_by_key(|&i| counts[i]);
    let mut li = 0usize;
    let mut internals: std::collections::VecDeque<usize> = std::collections::VecDeque::new();

    let pop_min = |nodes: &Vec<Node>,
                   li: &mut usize,
                   internals: &mut std::collections::VecDeque<usize>|
     -> usize {
        let leaf = leaves.get(*li).copied();
        let internal = internals.front().copied();
        match (leaf, internal) {
            (Some(l), Some(i)) => {
                if nodes[l].weight <= nodes[i].weight {
                    *li += 1;
                    l
                } else {
                    internals.pop_front();
                    i
                }
            }
            (Some(l), None) => {
                *li += 1;
                l
            }
            (None, Some(i)) => {
                internals.pop_front();
                i
            }
            (None, None) => unreachable!("ran out of nodes"),
        }
    };

    for _ in 0..n - 1 {
        let a = pop_min(&nodes, &mut li, &mut internals);
        let b = pop_min(&nodes, &mut li, &mut internals);
        let w = nodes[a].weight.saturating_add(nodes[b].weight);
        nodes.push(Node {
            weight: w,
            left: a,
            right: b,
        });
        internals.push_back(nodes.len() - 1);
    }
    // Depth-first traversal from the root to assign depths.
    let root = nodes.len() - 1;
    let mut lengths = vec![0u8; n];
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        let node = nodes[idx];
        if node.left == usize::MAX {
            lengths[idx] = depth.max(1);
        } else {
            stack.push((node.left, depth.saturating_add(1)));
            stack.push((node.right, depth.saturating_add(1)));
        }
    }
    lengths
}

/// A canonical Huffman code: encode and decode tables built from
/// `(symbol, length)` pairs.
#[derive(Debug, Clone)]
pub struct CanonicalCode {
    /// Encode table: indexed by `symbol - enc_base`, `(code, len)` with the
    /// code's bits reversed into stream order; len 0 = absent.
    enc: Vec<(u32, u8)>,
    /// Smallest symbol in the alphabet.
    enc_base: u32,
    /// For each length 1..=MAX: the first canonical code of that length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// For each length: offset into `sorted_syms` of its first symbol.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// Count of codes per length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    sorted_syms: Vec<u32>,
    /// Decode table indexed by the next `table_bits` stream bits: the
    /// `(symbol, len)` whose code prefixes them; len 0 = no code of at most
    /// `table_bits` bits does.
    table: Vec<(u32, u8)>,
    /// `min(TABLE_BITS, longest code length)`.
    table_bits: u32,
}

/// Errors from canonical-code construction or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// Lengths do not satisfy the Kraft inequality / overfull tree.
    InvalidLengths,
    /// A decoded bit pattern matches no symbol.
    BadCode,
    /// Bitstream ended mid-symbol.
    Truncated,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::InvalidLengths => write!(f, "invalid Huffman code lengths"),
            HuffmanError::BadCode => write!(f, "bit pattern matches no Huffman symbol"),
            HuffmanError::Truncated => write!(f, "bitstream ended mid-symbol"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<BitstreamOverrun> for HuffmanError {
    fn from(_: BitstreamOverrun) -> Self {
        HuffmanError::Truncated
    }
}

impl CanonicalCode {
    /// Builds encode/decode tables from `(symbol, length)` pairs.
    pub fn from_lengths(lengths: &[(u32, u8)]) -> Result<CanonicalCode, HuffmanError> {
        if lengths.is_empty() {
            return Err(HuffmanError::InvalidLengths);
        }
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &(_, l) in lengths {
            if l == 0 || l > MAX_CODE_LEN {
                return Err(HuffmanError::InvalidLengths);
            }
            count[l as usize] += 1;
        }
        // Kraft check (allow underfull trees — e.g. the 1-symbol code).
        let mut kraft: u64 = 0;
        for l in 1..=MAX_CODE_LEN as usize {
            kraft += (count[l] as u64) << (MAX_CODE_LEN as usize - l);
        }
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(HuffmanError::InvalidLengths);
        }
        // Canonical first codes.
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code + count[l - 1]) << 1;
            first_code[l] = code;
        }
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        {
            let mut acc = 0u32;
            for l in 1..=MAX_CODE_LEN as usize {
                offset[l] = acc;
                acc += count[l];
            }
        }
        // Symbols sorted by (length, symbol): bucket by length, then sort
        // each bucket (already in order when the caller lists symbols
        // ascending, as serialized tables and `lengths_from_symbols` do).
        let mut sorted_syms = vec![0u32; lengths.len()];
        {
            let mut fill = offset;
            for &(s, l) in lengths {
                sorted_syms[fill[l as usize] as usize] = s;
                fill[l as usize] += 1;
            }
        }
        // Encode and decode tables. Codes go on the wire MSB-first, so in
        // the LSB-first stream a code reads back bit-reversed.
        let enc_base = lengths.iter().map(|&(s, _)| s).min().expect("non-empty");
        let max_sym = lengths.iter().map(|&(s, _)| s).max().expect("non-empty");
        let max_len = (1..=MAX_CODE_LEN).rev().find(|&l| count[l as usize] > 0);
        let table_bits = (max_len.expect("lengths are non-empty") as u32).min(TABLE_BITS);
        let mut enc = vec![(0u32, 0u8); (max_sym - enc_base) as usize + 1];
        let mut table = vec![(0u32, 0u8); 1 << table_bits];
        for l in 1..=MAX_CODE_LEN {
            let start = offset[l as usize] as usize;
            let bucket = &mut sorted_syms[start..start + count[l as usize] as usize];
            bucket.sort_unstable();
            for (k, &s) in bucket.iter().enumerate() {
                let slot = &mut enc[(s - enc_base) as usize];
                if slot.1 != 0 {
                    return Err(HuffmanError::InvalidLengths); // duplicate symbol
                }
                let code = first_code[l as usize] + k as u32;
                let reversed = code.reverse_bits() >> (32 - l as u32);
                *slot = (reversed, l);
                if l as u32 <= table_bits {
                    for entry in table.iter_mut().skip(reversed as usize).step_by(1 << l) {
                        *entry = (s, l);
                    }
                }
            }
        }
        Ok(CanonicalCode {
            enc,
            enc_base,
            first_code,
            offset,
            count,
            sorted_syms,
            table,
            table_bits,
        })
    }

    /// Encodes one symbol (must be in the alphabet).
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: u32) {
        let (reversed, len) = self.enc[(symbol - self.enc_base) as usize];
        debug_assert!(len > 0, "symbol {symbol} not in alphabet");
        w.write_bits(reversed as u64, len as u32);
    }

    /// Decodes one symbol.
    ///
    /// # Errors
    /// [`HuffmanError::Truncated`] if the stream ends mid-code,
    /// [`HuffmanError::BadCode`] if no code prefixes the next
    /// [`MAX_CODE_LEN`] bits. The reader's position after an error is
    /// unspecified.
    #[inline(always)]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
        let window = r.peek_word();
        let (symbol, len) = self.table[(window & ((1u64 << self.table_bits) - 1)) as usize];
        if len > 0 {
            r.skip_bits(len as u32)?;
            return Ok(symbol);
        }
        let (symbol, len) = self.decode_long(window, r.remaining_bits())?;
        r.skip_bits(len)?;
        Ok(symbol)
    }

    /// Resolves a code longer than the table from `window`, the next stream
    /// bits, and returns `(symbol, code length)`. Canonical codes fill the
    /// 32-bit left-justified code space in order of length, so the code is
    /// the first length whose range end lies above the next 32 stream bits
    /// read MSB-first. No code of at most `table_bits` bits prefixes the
    /// stream here. The errors match a bit-by-bit walk: no code at all with
    /// fewer than `MAX_CODE_LEN` of the `remaining` bits left is
    /// `Truncated`, otherwise `BadCode`; a code that runs past the end is
    /// caught by the caller's skip.
    #[cold]
    fn decode_long(&self, window: u64, remaining: usize) -> Result<(u32, u32), HuffmanError> {
        let next = (window as u32).reverse_bits() as u64;
        for len in self.table_bits as usize + 1..=MAX_CODE_LEN as usize {
            let shift = MAX_CODE_LEN as usize - len;
            let end = (self.first_code[len] as u64 + self.count[len] as u64) << shift;
            if next < end {
                let idx = self.offset[len] + ((next >> shift) as u32 - self.first_code[len]);
                return Ok((self.sorted_syms[idx as usize], len as u32));
            }
        }
        if remaining < MAX_CODE_LEN as usize {
            Err(HuffmanError::Truncated)
        } else {
            Err(HuffmanError::BadCode)
        }
    }

    /// Serializes the `(symbol, length)` table compactly.
    pub fn serialize_lengths(lengths: &[(u32, u8)], out: &mut Vec<u8>) {
        varint::write_u64(out, lengths.len() as u64);
        let mut prev_sym = 0u32;
        for &(s, l) in lengths {
            // Symbols are emitted sorted by the callers; delta-encode.
            varint::write_u64(out, (s - prev_sym) as u64);
            out.push(l);
            prev_sym = s;
        }
    }

    /// Inverse of [`CanonicalCode::serialize_lengths`].
    pub fn deserialize_lengths(
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<Vec<(u32, u8)>, HuffmanError> {
        let n = varint::read_u64(buf, pos).map_err(|_| HuffmanError::InvalidLengths)? as usize;
        if n == 0 || n > 1 << 24 {
            return Err(HuffmanError::InvalidLengths);
        }
        let mut out = Vec::with_capacity(n);
        let mut sym = 0u32;
        for i in 0..n {
            let delta = varint::read_u64(buf, pos).map_err(|_| HuffmanError::InvalidLengths)?;
            sym = sym
                .checked_add(delta as u32)
                .ok_or(HuffmanError::InvalidLengths)?;
            let l = *buf.get(*pos).ok_or(HuffmanError::InvalidLengths)?;
            *pos += 1;
            out.push((sym, l));
            // Ensure strictly increasing symbols after the first.
            if i > 0 && delta == 0 {
                return Err(HuffmanError::InvalidLengths);
            }
        }
        Ok(out)
    }
}

/// Widest symbol range `lengths_from_symbols` counts: the SZ quantization
/// alphabet spans less than 2^16.
const MAX_SYMBOL_SPAN: usize = 1 << 16;

/// Convenience: builds lengths from the symbols' frequencies (pairs sorted
/// by symbol) — the common path for codec implementations. Frequencies are
/// counted in a dense array over the symbols' range.
///
/// # Panics
/// Panics if `symbols` is empty or spans more than 2^16 values.
pub fn lengths_from_symbols(symbols: &[u32]) -> Vec<(u32, u8)> {
    let lo = *symbols.iter().min().expect("no symbols");
    let hi = *symbols.iter().max().expect("no symbols");
    let span = (hi - lo) as usize + 1;
    assert!(
        span <= MAX_SYMBOL_SPAN,
        "symbol span {span} exceeds {MAX_SYMBOL_SPAN}"
    );
    let mut counts = vec![0u64; span];
    for &s in symbols {
        counts[(s - lo) as usize] += 1;
    }
    let pairs: Vec<(u32, u64)> = (lo..=hi).zip(counts).filter(|&(_, c)| c > 0).collect();
    build_code_lengths(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial canonical decoder the table decoder replaced: the
    /// reference it must agree with, symbol for symbol and error for error.
    fn ref_decode(code: &CanonicalCode, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
        let mut c = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            c = (c << 1) | r.read_bit()? as u32;
            let count = code.count[len];
            if count > 0 {
                let first = code.first_code[len];
                if c >= first && c - first < count {
                    return Ok(code.sorted_syms[(code.offset[len] + (c - first)) as usize]);
                }
            }
        }
        Err(HuffmanError::BadCode)
    }

    /// `(symbol, length)` alphabets: a single symbol, a staircase of lengths
    /// 1, 2, ..., 32, 32 (complete when all 33 symbols are drawn), equal
    /// lengths (complete or not), or random lengths in 1..=32 trimmed to
    /// satisfy Kraft (so often underfull).
    fn alphabet() -> impl Strategy<Value = Vec<(u32, u8)>> {
        (
            0u8..7,
            prop::collection::vec((1u32..3000, 1u8..=32, any::<bool>()), 1..300),
        )
            .prop_map(|(kind, raw)| {
                let mut sym = 0u32;
                let mut pairs: Vec<(u32, u8)> = raw
                    .iter()
                    .map(|&(gap, len, short)| {
                        sym += gap;
                        // Half the symbols get short codes, so the table
                        // path and the long-code walk both run.
                        (sym, if short { len.div_ceil(3) } else { len })
                    })
                    .collect();
                match kind {
                    0 => vec![(pairs[0].0, 1)],
                    1 => (1..=MAX_CODE_LEN)
                        .chain([MAX_CODE_LEN])
                        .zip(&pairs)
                        .map(|(l, &(s, _))| (s, l))
                        .collect(),
                    2 => {
                        let l = pairs[0].1.min(TABLE_BITS as u8);
                        pairs.truncate(1 << l);
                        pairs.iter().map(|&(s, _)| (s, l)).collect()
                    }
                    _ => {
                        pairs.sort_by_key(|&(s, l)| (l, s));
                        let mut kraft = 0u64;
                        pairs.retain(|&(_, l)| {
                            let weight = 1u64 << (MAX_CODE_LEN - l);
                            let fits = kraft + weight <= 1u64 << MAX_CODE_LEN;
                            kraft += if fits { weight } else { 0 };
                            fits
                        });
                        pairs.sort_unstable();
                        pairs
                    }
                }
            })
    }

    /// Decodes up to `n` symbols with both decoders; they must agree on
    /// every symbol and on the first error. Returns the decoded symbols.
    fn decode_both(code: &CanonicalCode, bytes: &[u8], n: usize) -> Result<Vec<u32>, String> {
        let mut fast = BitReader::new(bytes);
        let mut slow = BitReader::new(bytes);
        let mut out = Vec::new();
        for i in 0..n {
            let (a, b) = (code.decode(&mut fast), ref_decode(code, &mut slow));
            if a != b {
                return Err(format!("symbol {i}: table {a:?}, bit-serial {b:?}"));
            }
            match a {
                Ok(s) => out.push(s),
                Err(_) => break,
            }
        }
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn table_decoder_agrees_with_bit_serial_walk(
            lengths in alphabet(),
            picks in prop::collection::vec(any::<u32>(), 1..400),
            flips in prop::collection::vec(any::<u32>(), 0..4),
            cut in any::<u32>(),
        ) {
            let code = CanonicalCode::from_lengths(&lengths).expect("Kraft-valid lengths");
            let message: Vec<u32> = picks
                .iter()
                .map(|&p| lengths[p as usize % lengths.len()].0)
                .collect();
            let mut w = BitWriter::new();
            for &s in &message {
                code.encode(&mut w, s);
            }
            let bytes = w.into_bytes();
            let back = decode_both(&code, &bytes, message.len())?;
            prop_assert_eq!(&back, &message);

            // The code depends on the lengths, not on the order they come in.
            let mut reordered = lengths.clone();
            reordered.reverse();
            let same = CanonicalCode::from_lengths(&reordered).expect("same lengths");
            let mut w = BitWriter::new();
            for &s in &message {
                same.encode(&mut w, s);
            }
            prop_assert_eq!(&w.into_bytes(), &bytes);

            // Bit flips and truncation: the decoders still agree, and every
            // failure is a typed error, never a panic or an overread.
            let mut damaged = bytes.clone();
            for &f in &flips {
                if !damaged.is_empty() {
                    let bit = f as usize % (damaged.len() * 8);
                    damaged[bit / 8] ^= 1 << (bit % 8);
                }
            }
            damaged.truncate(cut as usize % (bytes.len() + 1));
            decode_both(&code, &damaged, message.len() + 8)?;
        }

        #[test]
        fn table_decoder_agrees_on_garbage_streams(
            lengths in alphabet(),
            garbage in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let code = CanonicalCode::from_lengths(&lengths).expect("Kraft-valid lengths");
            decode_both(&code, &garbage, 600)?;
        }
    }

    #[test]
    fn decode_table_is_sized_to_the_longest_code() {
        let code = CanonicalCode::from_lengths(&[(3, 1), (9, 2), (12, 2)]).unwrap();
        assert_eq!((code.table_bits, code.table.len()), (2, 4));
        let staircase: Vec<(u32, u8)> = (1..=MAX_CODE_LEN)
            .chain([MAX_CODE_LEN])
            .enumerate()
            .map(|(s, l)| (s as u32, l))
            .collect();
        let code = CanonicalCode::from_lengths(&staircase).unwrap();
        assert_eq!(code.table.len(), 1 << TABLE_BITS);
    }

    fn round_trip(symbols: &[u32]) {
        let lengths = lengths_from_symbols(symbols);
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in symbols {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    #[should_panic(expected = "symbol span")]
    fn symbol_span_beyond_the_counting_array_is_rejected() {
        lengths_from_symbols(&[0, 1 << 16]);
    }

    #[test]
    fn two_symbol_round_trip() {
        round_trip(&[0, 1, 0, 0, 1, 0, 1, 1, 0]);
    }

    #[test]
    fn single_symbol_alphabet() {
        round_trip(&[42, 42, 42, 42]);
        let lengths = lengths_from_symbols(&[7, 7, 7]);
        assert_eq!(lengths, vec![(7, 1)]);
    }

    #[test]
    fn skewed_distribution_gets_short_codes() {
        // Symbol 5 dominates; it must get the shortest code.
        let mut syms = vec![5u32; 1000];
        syms.extend([1, 2, 3, 4].repeat(3));
        let lengths = lengths_from_symbols(&syms);
        let code5 = lengths.iter().find(|&&(s, _)| s == 5).unwrap().1;
        for &(s, l) in &lengths {
            if s != 5 {
                assert!(l >= code5, "symbol {s} shorter than dominant symbol");
            }
        }
        round_trip(&syms);
    }

    #[test]
    fn large_sparse_alphabet_round_trip() {
        let symbols: Vec<u32> = (0..2000u32).map(|i| (i * 37) % 50000).collect();
        round_trip(&symbols);
    }

    #[test]
    fn average_length_beats_fixed_width_on_skew() {
        let mut syms = vec![0u32; 10_000];
        for i in 0..100 {
            syms.push(i % 16 + 1);
        }
        let lengths = lengths_from_symbols(&syms);
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in &syms {
            code.encode(&mut w, s);
        }
        // 17 symbols would need 5 fixed bits; entropy coding must do much
        // better on this skew.
        assert!(w.bit_len() < syms.len() * 2);
    }

    #[test]
    fn lengths_serialize_round_trip() {
        let lengths = lengths_from_symbols(&[1, 1, 2, 2, 2, 900, 900, 65535]);
        let mut buf = Vec::new();
        CanonicalCode::serialize_lengths(&lengths, &mut buf);
        let mut pos = 0;
        let back = CanonicalCode::deserialize_lengths(&buf, &mut pos).unwrap();
        assert_eq!(back, lengths);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn invalid_lengths_rejected() {
        // Overfull: three codes of length 1.
        let bad = vec![(0u32, 1u8), (1, 1), (2, 1)];
        assert_eq!(
            CanonicalCode::from_lengths(&bad).unwrap_err(),
            HuffmanError::InvalidLengths
        );
        // Zero length.
        assert!(CanonicalCode::from_lengths(&[(0, 0)]).is_err());
        // Duplicate symbol.
        assert!(CanonicalCode::from_lengths(&[(3, 1), (3, 2)]).is_err());
        // Empty.
        assert!(CanonicalCode::from_lengths(&[]).is_err());
    }

    #[test]
    fn truncated_stream_is_detected() {
        let lengths = lengths_from_symbols(
            &(0..16u32)
                .flat_map(|s| std::iter::repeat_n(s, s as usize + 1))
                .collect::<Vec<_>>(),
        );
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for s in 0..16u32 {
            code.encode(&mut w, s);
        }
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        let mut err = None;
        for _ in 0..16 {
            match code.decode(&mut r) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            err,
            Some(HuffmanError::Truncated) | Some(HuffmanError::BadCode)
        ));
    }

    #[test]
    fn decode_error_on_garbage_table() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1 << 30); // absurd count
        let mut pos = 0;
        assert!(CanonicalCode::deserialize_lengths(&buf, &mut pos).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths = lengths_from_symbols(&[0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        // Encode each symbol alone and check that no encoding is a prefix
        // of another (by decoding a concatenation back).
        let all: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();
        let mut w = BitWriter::new();
        for &s in &all {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &all {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }
}
