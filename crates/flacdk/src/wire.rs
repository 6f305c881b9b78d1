//! Tiny binary encoding helpers shared by the operation log, sync-cell
//! ops, RPC, and the redis-mini protocol glue.
//!
//! The format is deliberately trivial: little-endian fixed-width integers
//! and length-prefixed byte strings. It exists so that every layer that
//! ships bytes across the interconnect encodes them the same way and is
//! testable in isolation.

/// Incremental encoder producing a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Finish, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Decoding error: the buffer was shorter than the requested field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub at: usize,
    /// Bytes the failed read needed.
    pub needed: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated buffer at offset {} (needed {} bytes)",
            self.at, self.needed
        )
    }
}

impl std::error::Error for DecodeError {}

/// Cursor-style decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.buf.len() - self.pos {
            return Err(DecodeError {
                at: self.pos,
                needed: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("len 4")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("len 8")))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// An FNV-1a-style 64-bit hash, used for keys and content hashes across
/// the stack. It starts from the standard FNV-1a 64 offset basis but
/// multiplies by `0x1000_0000_01b3`, not the standard prime
/// `0x100_0000_01b3`, so its values differ from textbook FNV-1a 64. The
/// constant stays: chunk ids and the event-log digests in `FIGURES.txt`
/// derive from it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a`] of four equal-length buffers at once, in interleaved lanes:
/// the four multiply chains are independent, so a step costs about what
/// one buffer's step costs alone. Returns exactly `fnv1a` of each.
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub fn fnv1a_x4(bufs: [&[u8]; 4]) -> [u64; 4] {
    let [a, b, c, d] = bufs;
    assert!(
        b.len() == a.len() && c.len() == a.len() && d.len() == a.len(),
        "fnv1a_x4 lanes must be equally long"
    );
    let mut h = [FNV_OFFSET; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        for (h, byte) in h.iter_mut().zip([a, b, c, d]) {
            *h = (*h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Integrity checksum of a memory region: FNV-style over little-endian
/// `u64` words (the tail word zero-padded), with the length mixed in
/// first so a zero-padded tail cannot alias a longer region.
///
/// Eight times fewer steps than [`fnv1a`] over the same bytes. Every
/// step is `h = (h ^ w) * FNV_PRIME` with an odd prime, a bijection of
/// `h` for a fixed word, so a change confined to one 8-byte word always
/// changes the sum. The fault detector and the checkpoint manager share
/// this function: recovery seeds detector baselines from checkpoint sums.
/// Content addresses (chunk ids, shard routing, layer ids, dedup) keep
/// [`fnv1a`].
pub fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
    let mut words = bytes.chunks_exact(8);
    let mut h = step(FNV_OFFSET, bytes.len() as u64);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte word")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(w));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut e = Encoder::new();
        e.put_u8(7)
            .put_u32(123)
            .put_u64(u64::MAX)
            .put_bytes(b"abc")
            .put_str("xyz");
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 123);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.bytes().unwrap(), b"abc");
        assert_eq!(d.bytes().unwrap(), b"xyz");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncated_decode_fails_cleanly() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello");
        let v = e.into_vec();
        let mut d = Decoder::new(&v[..6]);
        let err = d.bytes().unwrap_err();
        assert_eq!(err.at, 4);
        assert!(err.to_string().contains("truncated"));
    }

    /// Decode the record `[u8][u32][u64][bytes]` field by field.
    fn decode_record(buf: &[u8]) -> Result<(u8, u32, u64, &[u8]), DecodeError> {
        let mut d = Decoder::new(buf);
        Ok((d.u8()?, d.u32()?, d.u64()?, d.bytes()?))
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error() {
        let mut e = Encoder::new();
        e.put_u8(7)
            .put_u32(123)
            .put_u64(u64::MAX)
            .put_bytes(b"payload");
        let v = e.into_vec();
        assert_eq!(
            decode_record(&v).unwrap(),
            (7, 123, u64::MAX, &b"payload"[..])
        );
        // (offset, width) of each read: u8, u32, u64, length, body.
        let reads = [(0, 1), (1, 4), (5, 8), (13, 4), (17, 7)];
        for cut in 0..v.len() {
            let err = decode_record(&v[..cut]).unwrap_err();
            // The read the cut lands in is the one that fails.
            let (at, needed) = *reads.iter().rfind(|(at, _)| *at <= cut).unwrap();
            assert_eq!(err, DecodeError { at, needed }, "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_prefix_is_a_typed_error() {
        let mut v = u32::MAX.to_le_bytes().to_vec();
        v.extend_from_slice(b"abc");
        let err = Decoder::new(&v).bytes().unwrap_err();
        assert_eq!(
            err,
            DecodeError {
                at: 4,
                needed: u32::MAX as usize
            }
        );
    }

    #[test]
    fn empty_bytes_roundtrip() {
        let mut e = Encoder::new();
        e.put_bytes(b"");
        assert!(!e.is_empty());
        let v = e.into_vec();
        assert_eq!(Decoder::new(&v).bytes().unwrap(), b"");
    }

    #[test]
    fn fnv_distinguishes_and_is_stable() {
        assert_eq!(fnv1a(b"flacos"), fnv1a(b"flacos"));
        assert_ne!(fnv1a(b"flacos"), fnv1a(b"flacos!"));
        assert_ne!(fnv1a(b""), 0);
    }

    #[test]
    fn checksum_sees_every_single_word_change_and_the_length() {
        let base: Vec<u8> = (0..61u8).collect();
        let sum = checksum(&base);
        assert_eq!(checksum(&base), sum, "stable");
        // Any change confined to one word — the zero-padded tail word
        // included — moves the sum.
        for word in 0..base.len().div_ceil(8) {
            for flip in [1u8, 0x80, 0xff] {
                let mut changed = base.clone();
                let at = (8 * word + word % 8).min(base.len() - 1);
                changed[at] ^= flip;
                assert_ne!(checksum(&changed), sum, "word {word} flip {flip:#x}");
            }
        }
        // Trailing zeros are not the zero padding.
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 2, 3, 0]));
        assert_ne!(checksum(&[]), checksum(&[0; 8]));
    }
}
