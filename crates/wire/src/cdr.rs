//! CDR-style binary codec: the "general-purpose inter-ORB protocol"
//! comparator.
//!
//! The paper contrasts HeidiRMI's simple text protocol with standard
//! protocols such as IIOP that are "designed for generality" (§2). This
//! module implements the CDR essentials that give IIOP its shape — natural
//! alignment, little-endian primitive layout with an endianness flag in the
//! message header, length-prefixed NUL-terminated strings — so benchmarks
//! (E2) compare against a faithful-in-shape stand-in rather than a straw
//! man.
//!
//! Deviations from full CDR, chosen deliberately: `char` is transmitted as
//! a 32-bit Unicode scalar (CDR's 1-byte char cannot carry the Rust `char`
//! range), and we always emit little-endian (the receiving decoder honours
//! only that flag value).
//!
//! Like GIOP's `request_id`, the RMI layer leads every request and reply
//! body with a `ulonglong` correlation id (see `heidl-rmi`'s `call`
//! module), letting many in-flight calls multiplex one connection with
//! replies arriving in any order.
//!
//! Object references are carried as CDR strings in their stringified
//! form, so the failover grammar with comma-separated fallback profiles
//! (`@tcp:h1:p1,tcp:h2:p2#id#type` — IIOP would use a multi-profile IOR
//! here) needs no wire-format change; `heidl-rmi` parses the profile
//! list and drives endpoint failover above this codec.

use crate::codec::{primitive_seqs, Decoder, Encoder};
use crate::error::{WireError, WireResult};
use crate::limits::DecodeLimits;
use std::ops::Range;

/// A primitive's CDR layout: `SIZE` little-endian bytes aligned to `SIZE`.
/// Size equals alignment for every CDR primitive, so a run of them needs
/// at most one pad, before its first element — which is what lets a
/// sequence travel as one bounds-checked block.
trait CdrPrimitive: Copy {
    const SIZE: usize;
    /// What a truncated read reports.
    const WHAT: &'static str;
    /// `[u8; SIZE]`.
    type Bytes: AsRef<[u8]>;
    fn to_wire(self) -> Self::Bytes;
    /// Decodes one value from exactly `SIZE` bytes.
    fn read(bytes: &[u8]) -> WireResult<Self>;
    /// Decodes every value of a run of whole elements, failing on the
    /// first malformed one.
    fn read_run(run: &[u8]) -> WireResult<Vec<Self>> {
        let mut out = Vec::with_capacity(run.len() / Self::SIZE);
        for bytes in run.chunks_exact(Self::SIZE) {
            out.push(Self::read(bytes)?);
        }
        Ok(out)
    }
}

/// Numbers cannot be malformed, so their runs decode without a per-element
/// `Result`: an exact-size iterator the compiler turns into a block copy.
macro_rules! cdr_numbers {
    ($($ty:ty: $what:literal),*) => {$(
        impl CdrPrimitive for $ty {
            const SIZE: usize = std::mem::size_of::<$ty>();
            const WHAT: &'static str = $what;
            type Bytes = [u8; std::mem::size_of::<$ty>()];
            fn to_wire(self) -> Self::Bytes {
                self.to_le_bytes()
            }
            fn read(bytes: &[u8]) -> WireResult<Self> {
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("exact size slice")))
            }
            fn read_run(run: &[u8]) -> WireResult<Vec<Self>> {
                let each = |b: &[u8]| <$ty>::from_le_bytes(b.try_into().expect("exact size slice"));
                Ok(run.chunks_exact(Self::SIZE).map(each).collect())
            }
        }
    )*};
}

cdr_numbers!(u8: "octet", i16: "short", u16: "unsigned short", i32: "long", u32: "unsigned long");
cdr_numbers!(i64: "long long", u64: "unsigned long long", f32: "float", f64: "double");

impl CdrPrimitive for bool {
    const SIZE: usize = 1;
    const WHAT: &'static str = "boolean";
    type Bytes = [u8; 1];
    fn to_wire(self) -> [u8; 1] {
        [u8::from(self)]
    }
    fn read(bytes: &[u8]) -> WireResult<Self> {
        match bytes[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed {
                what: "boolean",
                detail: format!("expected 0 or 1, got {other}"),
            }),
        }
    }
}

/// A 32-bit Unicode scalar (see the module docs).
impl CdrPrimitive for char {
    const SIZE: usize = 4;
    const WHAT: &'static str = "char";
    type Bytes = [u8; 4];
    fn to_wire(self) -> [u8; 4] {
        (self as u32).to_le_bytes()
    }
    fn read(bytes: &[u8]) -> WireResult<Self> {
        let v = u32::read(bytes)?;
        char::from_u32(v).ok_or_else(|| WireError::Malformed {
            what: "char",
            detail: format!("invalid scalar value {v:#x}"),
        })
    }
}

/// Encoder for the CDR binary protocol.
///
/// ```
/// use heidl_wire::{CdrEncoder, Encoder};
///
/// let mut enc = CdrEncoder::new();
/// enc.put_octet(1);
/// enc.put_long(2); // aligned to 4: three pad bytes inserted
/// assert_eq!(enc.finish(), vec![1, 0, 0, 0, 2, 0, 0, 0]);
/// ```
#[derive(Debug)]
pub struct CdrEncoder {
    buf: Vec<u8>,
    depth: u32,
}

impl CdrEncoder {
    /// Creates an empty encoder. The output buffer is drawn from the
    /// process-wide [`pool`](crate::pool), so steady-state encoding does
    /// not allocate.
    pub fn new() -> Self {
        CdrEncoder { buf: crate::pool::global().take_vec(), depth: 0 }
    }

    fn align(&mut self, n: usize) {
        let rem = self.buf.len() % n;
        if rem != 0 {
            self.buf.resize(self.buf.len() + (n - rem), 0);
        }
    }

    fn put_one<T: CdrPrimitive>(&mut self, v: T) {
        self.align(T::SIZE);
        self.buf.extend_from_slice(v.to_wire().as_ref());
    }

    /// The bytes of `put_len` plus one `put_one` per element: an empty run
    /// writes no pad, a non-empty one pads once, grows the buffer once and
    /// fills it in place.
    fn put_run<T: CdrPrimitive>(&mut self, v: &[T]) {
        self.put_len(v.len() as u32);
        if v.is_empty() {
            return;
        }
        self.align(T::SIZE);
        let start = self.buf.len();
        self.buf.resize(start + v.len() * T::SIZE, 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(T::SIZE).zip(v) {
            dst.copy_from_slice(x.to_wire().as_ref());
        }
    }
}

impl Default for CdrEncoder {
    fn default() -> Self {
        CdrEncoder::new()
    }
}

impl Drop for CdrEncoder {
    fn drop(&mut self) {
        // Whatever capacity is left (a finished encoder holds none, an
        // abandoned one holds its scratch) goes back to the pool.
        crate::pool::recycle(std::mem::take(&mut self.buf));
    }
}

macro_rules! cdr_puts {
    ($($put_seq:ident, $put:ident, $get_seq:ident, $get:ident: $ty:ty;)*) => {$(
        fn $put(&mut self, v: $ty) {
            self.put_one(v);
        }

        fn $put_seq(&mut self, v: &[$ty]) {
            self.put_run(v);
        }
    )*};
}

impl Encoder for CdrEncoder {
    primitive_seqs!(cdr_puts);

    fn put_string(&mut self, v: &str) {
        // CDR: ulong byte count including the terminating NUL, then bytes.
        let bytes = v.as_bytes();
        self.put_ulong(bytes.len() as u32 + 1);
        self.buf.extend_from_slice(bytes);
        self.buf.push(0);
    }

    fn put_len(&mut self, n: u32) {
        self.put_ulong(n);
    }

    fn begin(&mut self) {
        // CDR composites are self-delimiting; only nesting is tracked.
        self.depth += 1;
    }

    fn end(&mut self) {
        assert!(self.depth > 0, "end() without matching begin() — stub generator bug");
        self.depth -= 1;
    }

    fn finish(&mut self) -> Vec<u8> {
        assert_eq!(self.depth, 0, "finish() with {} unclosed begin()s", self.depth);
        std::mem::take(&mut self.buf)
    }

    fn position(&self) -> usize {
        self.buf.len()
    }
}

/// Decoder for the CDR binary protocol.
///
/// Generic over its backing storage `B`: an owned `Vec<u8>` (the
/// default), a [`PooledBuf`](crate::PooledBuf) whose storage recycles
/// when the decoder drops, or a borrowed `&[u8]` for zero-copy peeks at
/// routing fields (see [`Protocol::peek_decoder`](crate::Protocol)).
#[derive(Debug)]
pub struct CdrDecoder<B = Vec<u8>> {
    buf: B,
    pos: usize,
    depth: u32,
    limits: DecodeLimits,
}

impl<B: AsRef<[u8]>> CdrDecoder<B> {
    /// Wraps a message body for decoding with [`DecodeLimits::default`]
    /// (the historical 64 MiB sanity bound).
    pub fn new(buf: B) -> Self {
        CdrDecoder::with_limits(buf, DecodeLimits::default())
    }

    /// Wraps a message body for decoding under explicit [`DecodeLimits`]:
    /// a length prefix beyond the string/sequence bounds, or nesting past
    /// the depth bound, fails cleanly instead of allocating.
    pub fn with_limits(buf: B, limits: DecodeLimits) -> Self {
        CdrDecoder { buf, pos: 0, depth: 0, limits }
    }

    fn align(&mut self, n: usize) {
        let rem = self.pos % n;
        if rem != 0 {
            self.pos += n - rem;
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> WireResult<&[u8]> {
        let buf = self.buf.as_ref();
        match self.pos.checked_add(n) {
            Some(end) if end <= buf.len() => {
                let s = &buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            _ => Err(WireError::UnexpectedEnd { what }),
        }
    }
}

impl<B: AsRef<[u8]> + Send> CdrDecoder<B> {
    /// The next string, checked — its length against the limits, its NUL
    /// and its UTF-8 — and borrowed where it lies, with its offset.
    fn string_in_place(&mut self) -> WireResult<(usize, &str)> {
        let len = self.get_ulong()?;
        let max = self.limits.max_string_bytes;
        if len == 0 || len > max {
            return Err(WireError::Bounds { what: "string", len: len.into(), max: max.into() });
        }
        let at = self.pos;
        let bytes = self.take(len as usize, "string body")?;
        let (body, nul) = bytes.split_at(len as usize - 1);
        if nul != [0] {
            return Err(WireError::Malformed {
                what: "string",
                detail: "missing NUL terminator".into(),
            });
        }
        let text = std::str::from_utf8(body).map_err(|e| WireError::Malformed {
            what: "string",
            detail: format!("not valid UTF-8: {e}"),
        })?;
        Ok((at, text))
    }

    fn get_one<T: CdrPrimitive>(&mut self) -> WireResult<T> {
        self.align(T::SIZE);
        T::read(self.take(T::SIZE, T::WHAT)?)
    }

    /// What `get_len` plus one `get_one` per element reads, with the whole
    /// run bounds-checked before the vector is allocated: a length prefix
    /// the body cannot back fails with `UnexpectedEnd` and allocates
    /// nothing.
    fn get_run<T: CdrPrimitive>(&mut self) -> WireResult<Vec<T>> {
        let n = self.get_len()? as usize;
        if n == 0 {
            return Ok(Vec::new());
        }
        self.align(T::SIZE);
        let len = n.checked_mul(T::SIZE).ok_or(WireError::UnexpectedEnd { what: T::WHAT })?;
        T::read_run(self.take(len, T::WHAT)?)
    }
}

macro_rules! cdr_gets {
    ($($put_seq:ident, $put:ident, $get_seq:ident, $get:ident: $ty:ty;)*) => {$(
        fn $get(&mut self) -> WireResult<$ty> {
            self.get_one()
        }

        fn $get_seq(&mut self) -> WireResult<Vec<$ty>> {
            self.get_run()
        }
    )*};
}

impl<B: AsRef<[u8]> + Send> Decoder for CdrDecoder<B> {
    primitive_seqs!(cdr_gets);

    fn get_string(&mut self) -> WireResult<String> {
        // Validate on the borrowed slice, then allocate the String once —
        // no intermediate Vec copy.
        self.string_in_place().map(|(_, s)| s.to_owned())
    }

    fn get_string_span(&mut self) -> WireResult<Option<Range<usize>>> {
        let (at, s) = self.string_in_place()?;
        Ok(Some(at..at + s.len()))
    }

    fn skip_string(&mut self) -> WireResult<()> {
        // Length and bounds checks match `get_string`; the skipped content
        // itself (NUL terminator, UTF-8) is not validated — callers skip a
        // field precisely because they will not use it, and the full parse
        // revalidates.
        let len = self.get_ulong()?;
        let max = self.limits.max_string_bytes;
        if len == 0 || len > max {
            return Err(WireError::Bounds { what: "string", len: len.into(), max: max.into() });
        }
        self.take(len as usize, "string body")?;
        Ok(())
    }

    fn get_len(&mut self) -> WireResult<u32> {
        let n = self.get_ulong()?;
        let max = self.limits.max_sequence_len;
        if n > max {
            return Err(WireError::Bounds { what: "sequence", len: n.into(), max: max.into() });
        }
        Ok(n)
    }

    fn begin(&mut self) -> WireResult<()> {
        if self.depth >= self.limits.max_depth {
            return Err(WireError::Bounds {
                what: "nesting depth",
                len: u64::from(self.depth) + 1,
                max: self.limits.max_depth.into(),
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn end(&mut self) -> WireResult<()> {
        if self.depth == 0 {
            return Err(WireError::Nesting { detail: "end without begin".into() });
        }
        self.depth -= 1;
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.buf.as_ref().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_roundtrip() {
        let mut enc = CdrEncoder::new();
        crate::codec::conformance::roundtrip_all(&mut enc, |bytes| {
            Box::new(CdrDecoder::new(bytes))
        });
    }

    #[test]
    fn alignment_matches_cdr_rules() {
        let mut enc = CdrEncoder::new();
        enc.put_octet(1);
        enc.put_short(2); // aligns to 2
        enc.put_octet(3);
        enc.put_double(4.0); // aligns to 8
        let bytes = enc.finish();
        assert_eq!(&bytes[..2], &[1, 0], "one pad byte before short");
        assert_eq!(bytes.len(), 2 + 2 + 1 + 3 + 8, "three pad bytes before double");
    }

    #[test]
    fn string_layout_is_len_body_nul() {
        let mut enc = CdrEncoder::new();
        enc.put_string("hi");
        let bytes = enc.finish();
        assert_eq!(bytes, vec![3, 0, 0, 0, b'h', b'i', 0]);
    }

    #[test]
    fn truncated_input_errors() {
        let mut dec = CdrDecoder::new(vec![1, 2]);
        assert!(matches!(dec.get_long(), Err(WireError::UnexpectedEnd { .. })));
    }

    #[test]
    fn bad_bool_byte_errors() {
        let mut dec = CdrDecoder::new(vec![7]);
        assert!(matches!(dec.get_bool(), Err(WireError::Malformed { what: "boolean", .. })));
    }

    #[test]
    fn corrupt_string_length_is_bounded() {
        let mut enc = CdrEncoder::new();
        enc.put_ulong(u32::MAX); // absurd length prefix
        let mut dec = CdrDecoder::new(enc.finish());
        assert!(matches!(dec.get_string(), Err(WireError::Bounds { .. })));
    }

    #[test]
    fn string_without_nul_is_malformed() {
        // length 3, body "abc" (no NUL)
        let mut dec = CdrDecoder::new(vec![3, 0, 0, 0, b'a', b'b', b'c']);
        assert!(matches!(dec.get_string(), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn invalid_char_scalar_is_malformed() {
        let mut dec = CdrDecoder::new(0xD800u32.to_le_bytes().to_vec());
        assert!(dec.get_char().is_err());
    }

    #[test]
    fn decoder_end_without_begin_errors() {
        let mut dec = CdrDecoder::new(vec![]);
        assert!(dec.end().is_err());
        dec.begin().unwrap();
        assert!(dec.end().is_ok());
    }

    #[test]
    fn encoder_reusable_after_finish() {
        let mut enc = CdrEncoder::new();
        enc.put_octet(9);
        assert_eq!(enc.finish(), vec![9]);
        enc.put_octet(8);
        assert_eq!(enc.finish(), vec![8]);
    }

    #[test]
    fn custom_limits_bound_strings_sequences_and_depth() {
        let limits = DecodeLimits::default()
            .with_max_string_bytes(4)
            .with_max_sequence_len(2)
            .with_max_depth(1);
        // String longer than the bound: rejected before the body is read.
        let mut enc = CdrEncoder::new();
        enc.put_string("too long");
        let mut dec = CdrDecoder::with_limits(enc.finish(), limits);
        assert!(matches!(dec.get_string(), Err(WireError::Bounds { what: "string", .. })));
        // Sequence length beyond the bound.
        let mut enc = CdrEncoder::new();
        enc.put_len(3);
        let mut dec = CdrDecoder::with_limits(enc.finish(), limits);
        assert!(matches!(dec.get_len(), Err(WireError::Bounds { what: "sequence", .. })));
        // Nesting past the depth bound.
        let mut dec = CdrDecoder::with_limits(vec![], limits);
        dec.begin().unwrap();
        assert!(matches!(dec.begin(), Err(WireError::Bounds { what: "nesting depth", .. })));
    }

    #[test]
    fn within_limit_values_still_decode() {
        let limits = DecodeLimits::default().with_max_string_bytes(16).with_max_sequence_len(8);
        let mut enc = CdrEncoder::new();
        enc.put_string("ok");
        enc.put_len(8);
        let mut dec = CdrDecoder::with_limits(enc.finish(), limits);
        assert_eq!(dec.get_string().unwrap(), "ok");
        assert_eq!(dec.get_len().unwrap(), 8);
    }

    #[test]
    fn non_utf8_string_body_is_malformed() {
        let mut dec = CdrDecoder::new(vec![3, 0, 0, 0, 0xFF, 0xFE, 0]);
        assert!(matches!(dec.get_string(), Err(WireError::Malformed { what: "string", .. })));
    }
}
