//! Bit-granular I/O over byte buffers.
//!
//! LSB-first bit order: the first bit written lands in the least-significant
//! bit of the first byte. All codecs in this crate share these two types, so
//! their on-wire formats stay mutually consistent.

/// Writes bit runs into a growing byte buffer.
///
/// Bits collect in a 64-bit accumulator and reach the buffer a whole word
/// at a time, so a run of any width up to 64 costs one shift and one or,
/// not one step per byte.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, LSB-first, not yet in `buf`.
    acc: u64,
    /// Valid bits in `acc` (always < 64).
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n` bits of `value` (n <= 64).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || value >> n == 0, "value has bits above n");
        if n == 0 {
            return;
        }
        self.acc |= value << self.acc_bits;
        let total = self.acc_bits + n;
        if total < 64 {
            self.acc_bits = total;
        } else {
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            // `used` bits of `value` fit in the word just written (1..=64).
            let used = 64 - self.acc_bits;
            self.acc = value.checked_shr(used).unwrap_or(0);
            self.acc_bits = total - 64;
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Pads to a byte boundary and appends a whole byte slice.
    pub fn write_bytes_aligned(&mut self, bytes: &[u8]) {
        self.flush_bytes();
        self.buf.extend_from_slice(bytes);
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        let aligned = self.acc_bits.div_ceil(8) * 8;
        if aligned == 64 {
            self.flush_bytes();
        } else {
            self.acc_bits = aligned;
        }
    }

    /// Moves every pending bit into `buf`, zero-padding the last byte.
    fn flush_bytes(&mut self) {
        let bytes = self.acc_bits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        self.acc = 0;
        self.acc_bits = 0;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.acc_bits as usize
    }

    /// Finishes and returns the byte buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush_bytes();
        self.buf
    }
}

/// Reads bit runs from a byte slice.
///
/// [`read_bits`](BitReader::read_bits) loads one unaligned 64-bit word at
/// the cursor, so a run of up to 56 bits costs a load, a shift and a mask.
/// The Huffman decoder's peek-and-skip pair works from a cached word that
/// is reloaded only once fewer than 32 of its bits are left, so a short
/// code costs a mask and a shift.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
    /// Stream bits from `pos` on, LSB-first; bits above `cache_bits` are 0.
    cache: u64,
    /// Valid bits in `cache`.
    cache_bits: u32,
}

/// Lookahead [`BitReader::peek_word`] guarantees (while that many remain).
pub(crate) const PEEK_BITS: u32 = 32;

/// Error returned when a read runs past the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamOverrun;

impl std::fmt::Display for BitstreamOverrun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream overrun")
    }
}

impl std::error::Error for BitstreamOverrun {}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            pos: 0,
            cache: 0,
            cache_bits: 0,
        }
    }

    /// Reads `n` bits (n <= 64) as the low bits of the result.
    ///
    /// # Errors
    /// [`BitstreamOverrun`] (cursor unchanged) if fewer than `n` bits remain.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, BitstreamOverrun> {
        debug_assert!(n <= 64);
        if n as usize > self.remaining_bits() {
            return Err(BitstreamOverrun);
        }
        let out = if n <= 56 {
            self.word_at(self.pos) & low_mask(n)
        } else {
            // A word holds at least 57 stream bits; split wider reads.
            let lo = self.word_at(self.pos) & low_mask(32);
            lo | (self.word_at(self.pos + 32) & low_mask(n - 32)) << 32
        };
        self.jump(self.pos + n as usize);
        Ok(out)
    }

    /// The next stream bits from the cursor, LSB-first, without advancing:
    /// the low `min(PEEK_BITS, remaining_bits())` bits are stream bits, and
    /// bits past the end of the buffer read as zero.
    #[inline(always)]
    pub(crate) fn peek_word(&mut self) -> u64 {
        if self.cache_bits < PEEK_BITS {
            self.refill();
        }
        self.cache
    }

    /// Reloads the cache with the (up to 64) stream bits from the cursor.
    #[inline]
    fn refill(&mut self) {
        self.cache = self.word_at(self.pos);
        self.cache_bits = (64 - (self.pos % 8) as u32).min(self.remaining_bits().min(64) as u32);
    }

    /// The 64 stream bits from bit `pos`, LSB-first, zero past the end; at
    /// least the low 57 are stream bits whenever that many remain.
    #[inline]
    fn word_at(&self, pos: usize) -> u64 {
        let byte = pos / 8;
        let word = match self.buf.get(byte..byte + 8) {
            Some(b) => u64::from_le_bytes(b.try_into().expect("eight bytes")),
            None => tail_word(&self.buf[byte..]),
        };
        word >> (pos % 8)
    }

    /// Advances the cursor by `n` bits.
    ///
    /// # Errors
    /// [`BitstreamOverrun`] (cursor unchanged) if fewer than `n` bits remain.
    #[inline]
    pub(crate) fn skip_bits(&mut self, n: u32) -> Result<(), BitstreamOverrun> {
        if n <= self.cache_bits {
            // Cached bits are stream bits: no bounds check needed.
            self.cache = self.cache.checked_shr(n).unwrap_or(0);
            self.cache_bits -= n;
            self.pos += n as usize;
            return Ok(());
        }
        if n as usize > self.remaining_bits() {
            return Err(BitstreamOverrun);
        }
        self.jump(self.pos + n as usize);
        Ok(())
    }

    /// Moves the cursor to bit `pos` and empties the cache.
    #[inline]
    fn jump(&mut self, pos: usize) {
        self.pos = pos;
        self.cache = 0;
        self.cache_bits = 0;
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitstreamOverrun> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Skips to the next byte boundary and reads `n` whole bytes.
    pub fn read_bytes_aligned(&mut self, n: usize) -> Result<&'a [u8], BitstreamOverrun> {
        self.align();
        let start = self.pos / 8;
        if start + n > self.buf.len() {
            return Err(BitstreamOverrun);
        }
        self.jump(self.pos + n * 8);
        Ok(&self.buf[start..start + n])
    }

    /// Advances to the next byte boundary.
    pub fn align(&mut self) {
        self.jump(self.pos.next_multiple_of(8));
    }

    /// Bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }
}

/// The last (< 8) bytes of a buffer as a zero-padded little-endian word.
/// Out of line so the reader's hot paths stay small enough to inline.
#[cold]
#[inline(never)]
fn tail_word(rest: &[u8]) -> u64 {
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    u64::from_le_bytes(tail)
}

/// The low `n` bits set (n <= 64).
#[inline]
fn low_mask(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time writer the word-level one replaced: the
    /// reference its output must match byte for byte.
    #[derive(Default)]
    struct RefWriter {
        buf: Vec<u8>,
        bit: u32,
    }

    impl RefWriter {
        fn write_bits(&mut self, value: u64, n: u32) {
            let mut remaining = n;
            let mut v = value;
            while remaining > 0 {
                if self.bit == 0 {
                    self.buf.push(0);
                }
                let take = (8 - self.bit).min(remaining);
                let last = self.buf.last_mut().expect("buffer non-empty");
                *last |= ((v & ((1u64 << take) - 1)) as u8) << self.bit;
                v >>= take;
                self.bit = (self.bit + take) % 8;
                remaining -= take;
            }
        }

        fn write_bytes_aligned(&mut self, bytes: &[u8]) {
            self.bit = 0;
            self.buf.extend_from_slice(bytes);
        }

        fn bit_len(&self) -> usize {
            match self.bit {
                0 => self.buf.len() * 8,
                b => (self.buf.len() - 1) * 8 + b as usize,
            }
        }
    }

    /// The bit-serial reader the word-level one replaced.
    fn ref_read_bits(buf: &[u8], pos: &mut usize, n: u32) -> Result<u64, BitstreamOverrun> {
        if *pos + n as usize > buf.len() * 8 {
            return Err(BitstreamOverrun);
        }
        let mut out = 0u64;
        for i in 0..n {
            let bit = (buf[*pos / 8] >> (*pos % 8)) & 1;
            out |= (bit as u64) << i;
            *pos += 1;
        }
        Ok(out)
    }

    #[derive(Debug, Clone)]
    enum Op {
        Bits(u64, u32),
        Align,
        Bytes(Vec<u8>),
    }

    /// Mostly bit runs of every width 0..=64, with alignments and aligned
    /// byte slices mixed in so runs start at every bit offset.
    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..12,
            any::<u64>(),
            0u32..=64,
            prop::collection::vec(any::<u8>(), 0..4),
        )
            .prop_map(|(kind, value, n, bytes)| match kind {
                0 => Op::Align,
                1 => Op::Bytes(bytes),
                _ => Op::Bits(value & low_mask(n), n),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn word_writer_matches_byte_writer(ops in prop::collection::vec(op(), 0..200)) {
            let mut w = BitWriter::new();
            let mut reference = RefWriter::default();
            for op in &ops {
                match op {
                    Op::Bits(v, n) => {
                        w.write_bits(*v, *n);
                        reference.write_bits(*v, *n);
                    }
                    Op::Align => {
                        w.align();
                        reference.bit = 0;
                    }
                    Op::Bytes(b) => {
                        w.write_bytes_aligned(b);
                        reference.write_bytes_aligned(b);
                    }
                }
                prop_assert_eq!(w.bit_len(), reference.bit_len());
            }
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &reference.buf);

            // Read everything back, word-level against bit-serial. Short
            // runs alternate between `read_bits` and the cached
            // `peek_word` + `skip_bits` pair, so every path meets every
            // alignment.
            let mut r = BitReader::new(&bytes);
            let mut pos = 0usize;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Bits(v, n) if *n <= PEEK_BITS && i % 2 == 0 => {
                        prop_assert_eq!(r.peek_word() & low_mask(*n), *v);
                        prop_assert_eq!(r.skip_bits(*n), Ok(()));
                        prop_assert_eq!(ref_read_bits(&bytes, &mut pos, *n), Ok(*v));
                    }
                    Op::Bits(v, n) => {
                        prop_assert_eq!(r.read_bits(*n), Ok(*v));
                        prop_assert_eq!(ref_read_bits(&bytes, &mut pos, *n), Ok(*v));
                    }
                    Op::Align => {
                        r.align();
                        pos = pos.div_ceil(8) * 8;
                    }
                    Op::Bytes(b) => {
                        prop_assert_eq!(r.read_bytes_aligned(b.len()), Ok(b.as_slice()));
                        pos = pos.div_ceil(8) * 8 + b.len() * 8;
                    }
                }
                prop_assert_eq!(r.remaining_bits(), bytes.len() * 8 - pos);
            }
        }

        #[test]
        fn word_reader_matches_bit_reader_to_the_end(
            bytes in prop::collection::vec(any::<u8>(), 0..40),
            widths in prop::collection::vec(0u32..=64, 1..60),
        ) {
            let mut r = BitReader::new(&bytes);
            let mut pos = 0usize;
            for &n in &widths {
                let peek = r.peek_word();
                let got = r.read_bits(n);
                prop_assert_eq!(got, ref_read_bits(&bytes, &mut pos, n));
                match got {
                    Ok(v) => {
                        let seen = low_mask(n.min(PEEK_BITS));
                        prop_assert_eq!(v & seen, peek & seen);
                    }
                    // An overrun leaves the cursor where it was.
                    Err(_) => prop_assert_eq!(r.remaining_bits(), bytes.len() * 8 - pos),
                }
            }
        }
    }

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD, 16);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 0);
        w.write_bits(0x12345, 20);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(20).unwrap(), 0x12345);
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn aligned_bytes_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bytes_aligned(&[0xAA, 0xBB]);
        w.write_bits(0b10, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bytes_aligned(2).unwrap(), &[0xAA, 0xBB]);
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
    }

    #[test]
    fn overrun_is_detected() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(BitstreamOverrun));
        let mut r2 = BitReader::new(&bytes);
        assert_eq!(r2.read_bits(9), Err(BitstreamOverrun));
        assert_eq!(r2.read_bytes_aligned(2), Err(BitstreamOverrun));
    }

    #[test]
    fn remaining_bits_counts_down() {
        let bytes = [0u8, 0];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 11);
        r.align();
        assert_eq!(r.remaining_bits(), 8);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1); // bit 0 of byte 0
        w.write_bits(0b11, 2); // bits 1-2
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0b0000_0111);
    }
}
