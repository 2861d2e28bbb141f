//! Codec traits: what a `Call` object uses to marshal and unmarshal.
//!
//! The paper (§3.1): *"The `Call` object provides the functions for
//! marshaling and unmarshaling all primitive data types, as well as
//! additional `begin` and `end` functions that permit structuring of the
//! call request so that such composite data types as structs or sequences
//! can be easily represented."*
//!
//! Both the text protocol and the CDR binary protocol implement
//! [`Encoder`]/[`Decoder`], so generated stubs and skeletons are protocol
//! independent — the paper's "abstract interface to the ORB".
//!
//! A sequence of primitives also travels in one call:
//! `put_<t>_seq` / `get_<t>_seq` for each of the eleven primitive types.
//! Their default bodies are the element loop (length, then one
//! `put_<t>`/`get_<t>` per element, statically dispatched inside the
//! codec), which the text codec keeps: its tokens have no fixed width,
//! and a loop with the element parser inlined measured no faster. The
//! CDR codec overrides them to copy the run as one block. Either way the
//! bytes, values and errors are those of the loop.

use crate::error::WireResult;

/// The primitives that have a bulk sequence method, one row each:
/// `put_<t>_seq, put_<t>, get_<t>_seq, get_<t>: type`. `$then!` receives
/// every row, so the trait defaults below and a codec's overrides are
/// generated from the same list.
macro_rules! primitive_seqs {
    ($then:ident) => {
        $then! {
            put_bool_seq, put_bool, get_bool_seq, get_bool: bool;
            put_octet_seq, put_octet, get_octet_seq, get_octet: u8;
            put_char_seq, put_char, get_char_seq, get_char: char;
            put_short_seq, put_short, get_short_seq, get_short: i16;
            put_ushort_seq, put_ushort, get_ushort_seq, get_ushort: u16;
            put_long_seq, put_long, get_long_seq, get_long: i32;
            put_ulong_seq, put_ulong, get_ulong_seq, get_ulong: u32;
            put_longlong_seq, put_longlong, get_longlong_seq, get_longlong: i64;
            put_ulonglong_seq, put_ulonglong, get_ulonglong_seq, get_ulonglong: u64;
            put_float_seq, put_float, get_float_seq, get_float: f32;
            put_double_seq, put_double, get_double_seq, get_double: f64;
        }
    };
}
pub(crate) use primitive_seqs;

/// Default bulk puts: the length, then one put per element.
macro_rules! put_seq_defaults {
    ($($put_seq:ident, $put:ident, $get_seq:ident, $get:ident: $ty:ty;)*) => {$(
        #[doc = concat!("Appends a sequence: its length, then each element as [`Encoder::",
            stringify!($put), "`] writes it. The bytes are exactly those of that loop; ",
            "a codec with a fixed layout overrides this to write the run in one pass.")]
        fn $put_seq(&mut self, v: &[$ty]) {
            self.put_len(v.len() as u32);
            for &x in v {
                self.$put(x);
            }
        }
    )*};
}

/// Default bulk gets: the length, then one get per element.
macro_rules! get_seq_defaults {
    ($($put_seq:ident, $put:ident, $get_seq:ident, $get:ident: $ty:ty;)*) => {$(
        #[doc = concat!("Reads a sequence written by [`Encoder::", stringify!($put_seq),
            "`]: its length, then each element as [`Decoder::", stringify!($get),
            "`] reads it.\n\n# Errors\n\nAs [`Decoder::get_len`] and [`Decoder::",
            stringify!($get), "`]; the first bad element ends the read.")]
        fn $get_seq(&mut self) -> WireResult<Vec<$ty>> {
            let n = self.get_len()?;
            let mut out = seq_buffer(n);
            for _ in 0..n {
                out.push(self.$get()?);
            }
            Ok(out)
        }
    )*};
}

/// Most bytes [`seq_buffer`] reserves before any element has been read.
const SEQ_RESERVE_BYTES: usize = 8 * 1024;

/// An empty vector for a sequence whose length prefix announced `n`
/// elements. The prefix comes off the wire, so it is not trusted with an
/// allocation: the vector reserves room for at most 8 KiB of elements and
/// grows only as elements are actually decoded. A hostile length then
/// fails on the bytes that are not there, having allocated next to
/// nothing.
///
/// ```
/// let v: Vec<f64> = heidl_wire::seq_buffer(64 * 1024 * 1024);
/// assert_eq!(v.capacity(), 1024);
/// let v: Vec<f64> = heidl_wire::seq_buffer(3);
/// assert_eq!(v.capacity(), 3);
/// ```
pub fn seq_buffer<T>(n: u32) -> Vec<T> {
    let cap = SEQ_RESERVE_BYTES / std::mem::size_of::<T>().max(1);
    Vec::with_capacity((n as usize).min(cap))
}

/// Marshals primitive values and structure markers into a message body.
///
/// Implementations are append-only; [`Encoder::finish`] takes the bytes.
pub trait Encoder: Send {
    /// Appends a boolean.
    fn put_bool(&mut self, v: bool);
    /// Appends an octet (raw byte).
    fn put_octet(&mut self, v: u8);
    /// Appends a character.
    fn put_char(&mut self, v: char);
    /// Appends a 16-bit signed integer.
    fn put_short(&mut self, v: i16);
    /// Appends a 16-bit unsigned integer.
    fn put_ushort(&mut self, v: u16);
    /// Appends a 32-bit signed integer (IDL `long`).
    fn put_long(&mut self, v: i32);
    /// Appends a 32-bit unsigned integer.
    fn put_ulong(&mut self, v: u32);
    /// Appends a 64-bit signed integer.
    fn put_longlong(&mut self, v: i64);
    /// Appends a 64-bit unsigned integer.
    fn put_ulonglong(&mut self, v: u64);
    /// Appends a 32-bit float.
    fn put_float(&mut self, v: f32);
    /// Appends a 64-bit float.
    fn put_double(&mut self, v: f64);
    /// Appends a string.
    fn put_string(&mut self, v: &str);
    /// Appends a sequence length prefix.
    fn put_len(&mut self, n: u32);
    /// Opens a composite value (struct, sequence body, call arguments).
    fn begin(&mut self);
    /// Closes the innermost composite value.
    ///
    /// # Panics
    ///
    /// Implementations panic on `end` without matching `begin` — that is a
    /// stub-generator bug, not a runtime condition.
    fn end(&mut self);
    /// Completes the message and returns its bytes, leaving the encoder
    /// empty and reusable.
    fn finish(&mut self) -> Vec<u8>;
    /// Byte offset of the next append into the message produced by
    /// [`Encoder::finish`] — a stable marker callers can use to delimit a
    /// span of the encoded body (e.g. "the argument bytes of this call")
    /// without re-encoding.
    fn position(&self) -> usize;

    primitive_seqs!(put_seq_defaults);
}

/// Unmarshals values written by the matching [`Encoder`].
///
/// Every getter validates its input and fails with a
/// [`WireError`](crate::WireError) rather than panicking: bytes come from
/// the network.
pub trait Decoder: Send {
    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input (as do all getters).
    fn get_bool(&mut self) -> WireResult<bool>;
    /// Reads an octet.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_octet(&mut self) -> WireResult<u8>;
    /// Reads a character.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_char(&mut self) -> WireResult<char>;
    /// Reads a 16-bit signed integer.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_short(&mut self) -> WireResult<i16>;
    /// Reads a 16-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_ushort(&mut self) -> WireResult<u16>;
    /// Reads a 32-bit signed integer.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_long(&mut self) -> WireResult<i32>;
    /// Reads a 32-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_ulong(&mut self) -> WireResult<u32>;
    /// Reads a 64-bit signed integer.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_longlong(&mut self) -> WireResult<i64>;
    /// Reads a 64-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_ulonglong(&mut self) -> WireResult<u64>;
    /// Reads a 32-bit float.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_float(&mut self) -> WireResult<f32>;
    /// Reads a 64-bit float.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_double(&mut self) -> WireResult<f64>;
    /// Reads a string.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_string(&mut self) -> WireResult<String>;
    /// Skips over one string without materializing it — used when peeking
    /// at routing fields past a string the caller does not need. The
    /// default decodes and discards; codecs override to avoid the
    /// allocation.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input, as [`Decoder::get_string`]
    /// (implementations may skip content-level validation of the skipped
    /// bytes).
    fn skip_string(&mut self) -> WireResult<()> {
        self.get_string().map(|_| ())
    }
    /// Reads a sequence length prefix.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn get_len(&mut self) -> WireResult<u32>;
    /// Consumes a composite-open marker.
    ///
    /// # Errors
    ///
    /// Fails when the next token is not a `begin`.
    fn begin(&mut self) -> WireResult<()>;
    /// Consumes a composite-close marker.
    ///
    /// # Errors
    ///
    /// Fails when the next token is not an `end`.
    fn end(&mut self) -> WireResult<()>;
    /// True when all input has been consumed.
    fn at_end(&self) -> bool;

    primitive_seqs!(get_seq_defaults);
}

#[cfg(test)]
pub(crate) mod conformance {
    //! A protocol-agnostic round-trip exercise shared by the text and CDR
    //! codec tests.
    use super::*;

    pub(crate) fn roundtrip_all(
        enc: &mut dyn Encoder,
        mk_dec: impl Fn(Vec<u8>) -> Box<dyn Decoder>,
    ) {
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_octet(0xAB);
        enc.put_char('x');
        enc.put_char('\n');
        enc.put_short(-12345);
        enc.put_ushort(54321);
        enc.put_long(-7);
        enc.put_ulong(4_000_000_000);
        enc.put_longlong(i64::MIN);
        enc.put_ulonglong(u64::MAX);
        enc.put_float(1.5);
        enc.put_double(-0.25);
        enc.put_string("hello world \"quoted\" \\ line\nbreak");
        enc.put_string("");
        enc.put_len(3);
        enc.begin();
        enc.put_long(1);
        enc.begin();
        enc.put_string("nested");
        enc.end();
        enc.end();
        let bytes = enc.finish();

        let mut dec = mk_dec(bytes);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_octet().unwrap(), 0xAB);
        assert_eq!(dec.get_char().unwrap(), 'x');
        assert_eq!(dec.get_char().unwrap(), '\n');
        assert_eq!(dec.get_short().unwrap(), -12345);
        assert_eq!(dec.get_ushort().unwrap(), 54321);
        assert_eq!(dec.get_long().unwrap(), -7);
        assert_eq!(dec.get_ulong().unwrap(), 4_000_000_000);
        assert_eq!(dec.get_longlong().unwrap(), i64::MIN);
        assert_eq!(dec.get_ulonglong().unwrap(), u64::MAX);
        assert_eq!(dec.get_float().unwrap(), 1.5);
        assert_eq!(dec.get_double().unwrap(), -0.25);
        assert_eq!(dec.get_string().unwrap(), "hello world \"quoted\" \\ line\nbreak");
        assert_eq!(dec.get_string().unwrap(), "");
        assert_eq!(dec.get_len().unwrap(), 3);
        dec.begin().unwrap();
        assert_eq!(dec.get_long().unwrap(), 1);
        dec.begin().unwrap();
        assert_eq!(dec.get_string().unwrap(), "nested");
        dec.end().unwrap();
        dec.end().unwrap();
        assert!(dec.at_end());
    }
}
