//! The HeidiRMI **text protocol**: a newline-terminated string of ASCII
//! characters (paper §3.1).
//!
//! Messages are single lines of space-separated tokens:
//!
//! * booleans: `T` / `F`
//! * numbers: decimal text (`-7`, `1.5`)
//! * characters: `'x'` with `\n`, `\s` (space), `\'`, `\\` escapes
//! * strings: `"..."` with `\"`, `\\`, `\n` escapes
//! * composite begin/end: `{` and `}`
//!
//! Keeping everything printable is what let the paper's authors *"telnet
//! into the bootstrap port of a Heidi application and type in simple
//! HeidiRMI requests to debug the system"* — experiment E8 reproduces
//! exactly that against our server.
//!
//! The RMI layer puts a decimal **request id** first on every request and
//! reply line (see `heidl-rmi`'s `call` module), so concurrent calls can
//! share one connection and still be correlated. That stays telnet-friendly:
//! a human types `7 "objref" "print" T "hi"` and reads back `7 0`.
//!
//! Object references travel as plain strings too, including the failover
//! form with comma-separated fallback profiles —
//! `@tcp:primary:4700,tcp:backup:4701#1#IDL:Media/Player:1.0` — so a
//! multi-endpoint reference pasted into a telnet session is still just
//! one printable token (parsing and failover live in `heidl-rmi`).

use crate::codec::{Decoder, Encoder};
use crate::error::{WireError, WireResult};
use crate::limits::DecodeLimits;
use crate::pool::PooledBuf;
use std::borrow::Cow;
use std::io::Write;

/// Encoder for the text protocol. Every primitive is written straight
/// into the pooled output buffer — digits, float text and escapes
/// included — so marshaling a value allocates nothing.
///
/// ```
/// use heidl_wire::{Encoder, TextEncoder};
///
/// let mut enc = TextEncoder::new();
/// enc.put_string("print");
/// enc.put_long(42);
/// assert_eq!(String::from_utf8(enc.finish()).unwrap(), r#""print" 42"#);
/// ```
#[derive(Debug)]
pub struct TextEncoder {
    out: Vec<u8>,
    depth: u32,
}

impl TextEncoder {
    /// Creates an empty encoder. The output buffer is drawn from the
    /// process-wide [`pool`](crate::pool), so steady-state encoding does
    /// not allocate.
    pub fn new() -> Self {
        TextEncoder { out: crate::pool::global().take_vec(), depth: 0 }
    }

    /// Starts a token: one space after whatever came before.
    fn sep(&mut self) {
        if !self.out.is_empty() {
            self.out.push(b' ');
        }
    }

    fn token(&mut self, t: &[u8]) {
        self.sep();
        self.out.extend_from_slice(t);
    }

    fn integer(&mut self, v: i128) {
        self.sep();
        if v < 0 {
            self.out.push(b'-');
        }
        let mut v = v.unsigned_abs() as u64;
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[at..]);
    }

    /// `{:?}` is the shortest form that round-trips.
    fn float(&mut self, v: impl std::fmt::Debug) {
        self.sep();
        write!(self.out, "{v:?}").expect("writing to a Vec cannot fail");
    }

    /// Writes `s` between `quote`s, copying unescaped runs whole.
    fn quoted(&mut self, quote: u8, s: &[u8]) {
        self.sep();
        self.out.push(quote);
        let mut run = 0;
        for (i, &b) in s.iter().enumerate() {
            let escape = match b {
                b'\\' => b'\\',
                b'\n' => b'n',
                b'\r' => b'r',
                b' ' if quote == b'\'' => b's',
                b if b == quote => b,
                _ => continue,
            };
            self.out.extend_from_slice(&s[run..i]);
            self.out.extend_from_slice(&[b'\\', escape]);
            run = i + 1;
        }
        self.out.extend_from_slice(&s[run..]);
        self.out.push(quote);
    }
}

impl Default for TextEncoder {
    fn default() -> Self {
        TextEncoder::new()
    }
}

impl Drop for TextEncoder {
    fn drop(&mut self) {
        crate::pool::recycle(std::mem::take(&mut self.out));
    }
}

/// Every integer type widens into [`TextEncoder::integer`].
macro_rules! put_integers {
    ($($put:ident($ty:ty)),*) => {$(
        fn $put(&mut self, v: $ty) {
            self.integer(v.into());
        }
    )*};
}

impl Encoder for TextEncoder {
    put_integers!(put_octet(u8), put_short(i16), put_ushort(u16), put_long(i32), put_ulong(u32));
    put_integers!(put_longlong(i64), put_ulonglong(u64), put_len(u32));

    fn put_bool(&mut self, v: bool) {
        self.token(if v { b"T" } else { b"F" });
    }

    fn put_char(&mut self, v: char) {
        self.quoted(b'\'', v.encode_utf8(&mut [0; 4]).as_bytes());
    }

    fn put_float(&mut self, v: f32) {
        self.float(v);
    }

    fn put_double(&mut self, v: f64) {
        self.float(v);
    }

    fn put_string(&mut self, v: &str) {
        self.quoted(b'"', v.as_bytes());
    }

    fn begin(&mut self) {
        self.depth += 1;
        self.token(b"{");
    }

    fn end(&mut self) {
        assert!(self.depth > 0, "end() without matching begin() — stub generator bug");
        self.depth -= 1;
        self.token(b"}");
    }

    fn finish(&mut self) -> Vec<u8> {
        assert_eq!(self.depth, 0, "finish() with {} unclosed begin()s", self.depth);
        std::mem::take(&mut self.out)
    }

    fn position(&self) -> usize {
        self.out.len()
    }
}

/// The bytes that separate tokens. One set serves both uses — skipped
/// between tokens, and ending a bare token — so the scanner consumes at
/// least one byte per token whatever the line holds.
const fn is_sep(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// Offset of the first token byte at or after `at`.
#[inline]
fn skip_seps(buf: &[u8], at: usize) -> usize {
    buf[at..].iter().position(|&b| !is_sep(b)).map_or(buf.len(), |n| at + n)
}

fn utf8_error(what: &'static str, e: std::str::Utf8Error) -> WireError {
    WireError::Malformed { what, detail: format!("not valid UTF-8: {e}") }
}

/// Scans the token starting at `at` (not a separator), still in wire
/// form: `(raw, quote, end)`. `quote` is the token class — `0` for bare
/// tokens, `b'"'` for strings, `b'\''` for chars — which the getters check
/// to detect type confusion (a quoted `"42"` must not parse as a number);
/// `raw` excludes the quotes and `end` is the offset just past the token.
/// The string bound is enforced here, on the unescaped length, before
/// anything is materialized (the `+ 1` and `+ 2` preserve the historical
/// count: CDR string lengths include the NUL byte, and quoted tokens
/// carried their opening quote).
#[inline]
fn scan<'a>(buf: &'a [u8], at: usize, limits: &DecodeLimits) -> WireResult<(&'a [u8], u8, usize)> {
    let max = limits.max_string_bytes as usize;
    let over = |len: usize| match len > max {
        true => Err(WireError::Bounds { what: "string", len: len as u64, max: max as u64 }),
        false => Ok(()),
    };
    let quote = buf[at];
    if quote != b'"' && quote != b'\'' {
        let end = buf[at..].iter().position(|&b| is_sep(b)).map_or(buf.len(), |n| at + n);
        over(end - at + 1)?;
        return Ok((&buf[at..end], 0, end));
    }
    let (start, mut i, mut escapes) = (at + 1, at + 1, 0);
    let detail = loop {
        i += buf[i..].iter().position(|&b| b == quote || b == b'\\').unwrap_or(buf.len() - i);
        over(i - start - escapes + 2)?;
        match buf.get(i) {
            None => break "unterminated quote",
            Some(b'\\') if i + 1 == buf.len() => break "dangling escape",
            Some(b'\\') => (i, escapes) = (i + 2, escapes + 1),
            Some(_) => return Ok((&buf[start..i], quote, i + 1)),
        }
    };
    Err(WireError::Malformed { what: "quoted token", detail: detail.into() })
}

/// A quoted token's bytes with escapes resolved; borrowed when it has none.
fn unescape(raw: &[u8]) -> Cow<'_, [u8]> {
    if !raw.contains(&b'\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = Vec::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.iter().position(|&b| b == b'\\') {
        out.extend_from_slice(&rest[..i]);
        out.push(match rest[i + 1] {
            b'n' => b'\n',
            b'r' => b'\r',
            b's' => b' ',
            other => other,
        });
        rest = &rest[i + 2..];
    }
    out.extend_from_slice(rest);
    Cow::Owned(out)
}

/// A quoted token as text. Only a peeked message can fail here: the
/// full-parse constructors validated the whole line.
fn text(raw: &[u8], what: &'static str) -> WireResult<String> {
    String::from_utf8(unescape(raw).into_owned()).map_err(|e| utf8_error(what, e.utf8_error()))
}

/// A token for an error detail: as typed when bare, else unescaped.
fn show(raw: &[u8], quote: u8) -> String {
    let bytes = if quote == 0 { Cow::Borrowed(raw) } else { unescape(raw) };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decoder for the text protocol: a lazy cursor over the message bytes.
///
/// Nothing is copied or tabulated up front. Each getter scans one token
/// in place — numbers parse straight out of the line, a string is
/// unescaped only when [`Decoder::get_string`] asks for it,
/// [`Decoder::skip_string`] is a pure scan — and [`DecodeLimits`] are
/// enforced as each token is scanned, so reading the first *k* tokens
/// costs O(those tokens), not O(message). The storage `B` is a
/// [`PooledBuf`] that recycles when the decoder drops, or a borrowed
/// `&[u8]` for [`Protocol::peek_decoder`](crate::Protocol::peek_decoder).
///
/// The full-parse constructors ([`TextDecoder::new`], `with_limits`,
/// [`Protocol::decoder`](crate::Protocol), `decoder_with_limits`) first
/// validate the whole line in one copy-free pre-scan: invalid UTF-8, an
/// over-long token or an unterminated quote anywhere fails construction.
/// A *peek* decoder reports a malformed token only when a getter reads it.
#[derive(Debug)]
pub struct TextDecoder<B = PooledBuf> {
    buf: B,
    /// Offset of the next token's first byte, or the line's length.
    pos: usize,
    depth: u32,
    limits: DecodeLimits,
}

impl TextDecoder {
    /// Validates a text-protocol message with [`DecodeLimits::default`].
    ///
    /// # Errors
    ///
    /// Fails when the bytes are not UTF-8 or a quoted token is
    /// unterminated.
    pub fn new(bytes: &[u8]) -> WireResult<Self> {
        TextDecoder::with_limits(bytes, DecodeLimits::default())
    }

    /// Validates a text-protocol message under explicit [`DecodeLimits`]:
    /// tokens longer than the string bound, sequence lengths beyond their
    /// bound, and `{`/`}` nesting past the depth bound all fail cleanly —
    /// the same contract the CDR decoder enforces on its length prefixes.
    ///
    /// # Errors
    ///
    /// As [`TextDecoder::new`], plus [`WireError::Bounds`] violations.
    pub fn with_limits(bytes: &[u8], limits: DecodeLimits) -> WireResult<Self> {
        let mut buf = crate::pool::global().get();
        buf.extend_from_slice(bytes);
        TextDecoder::validated(buf, limits)
    }
}

impl<B: AsRef<[u8]>> TextDecoder<B> {
    /// A lazy decoder over `buf`: malformed tokens surface when read.
    pub(crate) fn peek(buf: B, limits: DecodeLimits) -> Self {
        let pos = skip_seps(buf.as_ref(), 0);
        TextDecoder { buf, pos, depth: 0, limits }
    }

    /// [`TextDecoder::peek`] after a pre-scan of every token.
    pub(crate) fn validated(buf: B, limits: DecodeLimits) -> WireResult<Self> {
        let bytes = buf.as_ref();
        std::str::from_utf8(bytes).map_err(|e| utf8_error("text message", e))?;
        let mut at = skip_seps(bytes, 0);
        while at < bytes.len() {
            at = skip_seps(bytes, scan(bytes, at, &limits)?.2);
        }
        Ok(TextDecoder::peek(buf, limits))
    }

    fn next(&mut self, what: &'static str) -> WireResult<(&[u8], u8)> {
        let buf = self.buf.as_ref();
        if self.pos >= buf.len() {
            return Err(WireError::UnexpectedEnd { what });
        }
        let (raw, quote, end) = scan(buf, self.pos, &self.limits)?;
        self.pos = skip_seps(buf, end);
        Ok((raw, quote))
    }

    fn parse_num<T: std::str::FromStr>(&mut self, what: &'static str) -> WireResult<T>
    where
        T::Err: std::fmt::Display,
    {
        let (raw, quote) = self.next(what)?;
        if quote != 0 {
            let detail = format!("expected bare token, got quoted `{}`", show(raw, quote));
            return Err(WireError::Malformed { what, detail });
        }
        let t = std::str::from_utf8(raw).map_err(|e| utf8_error(what, e))?;
        t.parse().map_err(|e| WireError::Malformed { what, detail: format!("`{t}`: {e}") })
    }

    /// Integers parse in the same pass that scans them. Anything but plain
    /// in-range digits (a `+`, an overflow, a quoted token, a token over
    /// the string bound) is left unread for [`TextDecoder::parse_num`],
    /// which accepts or diagnoses it exactly as `str::parse` does.
    fn parse_int<T>(&mut self, what: &'static str) -> WireResult<T>
    where
        T: std::str::FromStr + TryFrom<i128>,
        T::Err: std::fmt::Display,
    {
        let buf = self.buf.as_ref();
        let negative = buf.get(self.pos) == Some(&b'-');
        let start = self.pos + usize::from(negative);
        let mut end = start;
        let mut v = Some(0u64);
        while let Some(d) = buf.get(end).filter(|b| b.is_ascii_digit()) {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            end += 1;
        }
        let fits = end - self.pos < self.limits.max_string_bytes as usize;
        let whole = end > start && buf.get(end).is_none_or(|&b| is_sep(b));
        // `-0` is left to `str::parse`, which refuses it for unsigned types.
        let v = v.filter(|&v| fits && whole && !(negative && v == 0)).map(i128::from);
        match v.and_then(|v| T::try_from(if negative { -v } else { v }).ok()) {
            Some(v) => {
                self.pos = skip_seps(buf, end);
                Ok(v)
            }
            None => self.parse_num(what),
        }
    }

    /// The next token's raw bytes; it must be quoted with `quote`.
    fn quoted(&mut self, what: &'static str, quote: u8) -> WireResult<&[u8]> {
        match self.next(what)? {
            (raw, q) if q == quote => Ok(raw),
            (raw, q) => {
                let detail = format!("expected quoted {what}, got `{}`", show(raw, q));
                Err(WireError::Malformed { what, detail })
            }
        }
    }
}

macro_rules! get_integers {
    ($($get:ident -> $ty:ty: $what:literal),*) => {$(
        fn $get(&mut self) -> WireResult<$ty> {
            self.parse_int($what)
        }
    )*};
}

impl<B: AsRef<[u8]> + Send> Decoder for TextDecoder<B> {
    get_integers!(get_octet -> u8: "octet", get_short -> i16: "short", get_long -> i32: "long");
    get_integers!(get_ushort -> u16: "unsigned short", get_ulong -> u32: "unsigned long");
    get_integers!(get_longlong -> i64: "long long", get_ulonglong -> u64: "unsigned long long");

    fn get_bool(&mut self) -> WireResult<bool> {
        match self.next("boolean")? {
            (b"T", 0) => Ok(true),
            (b"F", 0) => Ok(false),
            (other, q) => Err(WireError::Malformed {
                what: "boolean",
                detail: format!("expected T or F, got `{}`", show(other, q)),
            }),
        }
    }

    fn get_char(&mut self) -> WireResult<char> {
        let t = text(self.quoted("char", b'\'')?, "char")?;
        let mut chars = t.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(WireError::Malformed {
                what: "char",
                detail: format!("expected exactly one character, got `{t}`"),
            }),
        }
    }

    fn get_float(&mut self) -> WireResult<f32> {
        self.parse_num("float")
    }

    fn get_double(&mut self) -> WireResult<f64> {
        self.parse_num("double")
    }

    fn get_string(&mut self) -> WireResult<String> {
        text(self.quoted("string", b'"')?, "string")
    }

    fn skip_string(&mut self) -> WireResult<()> {
        self.quoted("string", b'"').map(|_| ())
    }

    fn get_len(&mut self) -> WireResult<u32> {
        let n: u32 = self.parse_int("sequence length")?;
        let max = self.limits.max_sequence_len;
        if n > max {
            return Err(WireError::Bounds { what: "sequence", len: n.into(), max: max.into() });
        }
        Ok(n)
    }

    fn begin(&mut self) -> WireResult<()> {
        match self.next("begin marker")? {
            (b"{", 0) => {}
            (other, q) => {
                let detail = format!("expected `{{`, got `{}`", show(other, q));
                return Err(WireError::Nesting { detail });
            }
        }
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
        match self.next("end marker")? {
            (b"}", 0) => {
                self.depth = self.depth.saturating_sub(1);
                Ok(())
            }
            (other, q) => Err(WireError::Nesting {
                detail: format!("expected `}}`, got `{}`", show(other, q)),
            }),
        }
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
        let mut enc = TextEncoder::new();
        crate::codec::conformance::roundtrip_all(&mut enc, |bytes| {
            Box::new(TextDecoder::new(&bytes).unwrap())
        });
    }

    #[test]
    fn messages_are_human_readable_single_lines() {
        let mut enc = TextEncoder::new();
        enc.put_string("@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0");
        enc.put_string("p");
        enc.put_long(0);
        let bytes = enc.finish();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, r#""@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0" "p" 0"#);
        assert!(!text.contains('\n'), "framing requires single-line messages");
    }

    #[test]
    fn strings_with_newlines_stay_on_one_line() {
        let mut enc = TextEncoder::new();
        enc.put_string("a\nb");
        let bytes = enc.finish();
        assert!(!bytes.contains(&b'\n'));
        let mut dec = TextDecoder::new(&bytes).unwrap();
        assert_eq!(dec.get_string().unwrap(), "a\nb");
    }

    #[test]
    fn a_human_can_type_a_request() {
        // What you'd type over telnet: bare tokens, quoted strings.
        let typed = br#""print" "hello there" 3 T"#;
        let mut dec = TextDecoder::new(typed).unwrap();
        assert_eq!(dec.get_string().unwrap(), "print");
        assert_eq!(dec.get_string().unwrap(), "hello there");
        assert_eq!(dec.get_long().unwrap(), 3);
        assert!(dec.get_bool().unwrap());
        assert!(dec.at_end());
    }

    #[test]
    fn type_confusion_is_detected() {
        let mut enc = TextEncoder::new();
        enc.put_long(42);
        let bytes = enc.finish();
        let mut dec = TextDecoder::new(&bytes).unwrap();
        assert!(matches!(dec.get_string(), Err(WireError::Malformed { what: "string", .. })));
        let mut dec = TextDecoder::new(&bytes).unwrap();
        assert!(dec.get_bool().is_err());
    }

    #[test]
    fn truncated_input_reports_unexpected_end() {
        let mut dec = TextDecoder::new(b"1").unwrap();
        assert_eq!(dec.get_long().unwrap(), 1);
        assert!(matches!(dec.get_long(), Err(WireError::UnexpectedEnd { .. })));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        assert!(TextDecoder::new(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        assert!(TextDecoder::new(b"\"abc").is_err());
        assert!(TextDecoder::new(b"\"abc\\").is_err());
    }

    #[test]
    fn nesting_mismatch_is_reported() {
        let mut enc = TextEncoder::new();
        enc.begin();
        enc.put_long(1);
        enc.end();
        let bytes = enc.finish();
        let mut dec = TextDecoder::new(&bytes).unwrap();
        dec.begin().unwrap();
        assert_eq!(dec.get_long().unwrap(), 1);
        assert!(dec.end().is_ok());
        // And a begin where a long sits:
        let mut enc = TextEncoder::new();
        enc.put_long(1);
        let bytes = enc.finish();
        let mut dec = TextDecoder::new(&bytes).unwrap();
        assert!(matches!(dec.begin(), Err(WireError::Nesting { .. })));
    }

    #[test]
    #[should_panic(expected = "unclosed begin")]
    fn finish_with_open_begin_panics() {
        let mut enc = TextEncoder::new();
        enc.begin();
        let _ = enc.finish();
    }

    #[test]
    #[should_panic(expected = "without matching begin")]
    fn end_without_begin_panics() {
        let mut enc = TextEncoder::new();
        enc.end();
    }

    #[test]
    fn special_floats_roundtrip() {
        let mut enc = TextEncoder::new();
        enc.put_double(f64::INFINITY);
        enc.put_double(f64::NEG_INFINITY);
        enc.put_float(f32::NAN);
        let bytes = enc.finish();
        let mut dec = TextDecoder::new(&bytes).unwrap();
        assert_eq!(dec.get_double().unwrap(), f64::INFINITY);
        assert_eq!(dec.get_double().unwrap(), f64::NEG_INFINITY);
        assert!(dec.get_float().unwrap().is_nan());
    }

    #[test]
    fn encoder_is_reusable_after_finish() {
        let mut enc = TextEncoder::new();
        enc.put_long(1);
        assert_eq!(enc.finish(), b"1");
        enc.put_long(2);
        assert_eq!(enc.finish(), b"2");
    }

    #[test]
    fn custom_limits_bound_tokens_sequences_and_depth() {
        let limits = DecodeLimits::default()
            .with_max_string_bytes(8)
            .with_max_sequence_len(2)
            .with_max_depth(1);
        // An oversized quoted token is rejected while tokenizing, so the
        // giant String is never materialized.
        let long = format!("\"{}\"", "x".repeat(64));
        assert!(matches!(
            TextDecoder::with_limits(long.as_bytes(), limits),
            Err(WireError::Bounds { what: "string", .. })
        ));
        // Bare tokens are bounded too (a number 10 km long is an attack).
        let bare = "1".repeat(64);
        assert!(TextDecoder::with_limits(bare.as_bytes(), limits).is_err());
        // Sequence length beyond the bound.
        let mut dec = TextDecoder::with_limits(b"3", limits).unwrap();
        assert!(matches!(dec.get_len(), Err(WireError::Bounds { what: "sequence", .. })));
        // Nesting past the depth bound.
        let mut dec = TextDecoder::with_limits(b"{ {", limits).unwrap();
        dec.begin().unwrap();
        assert!(matches!(dec.begin(), Err(WireError::Bounds { what: "nesting depth", .. })));
    }

    #[test]
    fn within_limit_text_still_decodes() {
        let limits = DecodeLimits::default().with_max_string_bytes(16).with_max_sequence_len(8);
        let mut enc = TextEncoder::new();
        enc.put_string("ok");
        enc.put_len(8);
        enc.begin();
        enc.end();
        let bytes = enc.finish();
        let mut dec = TextDecoder::with_limits(&bytes, limits).unwrap();
        assert_eq!(dec.get_string().unwrap(), "ok");
        assert_eq!(dec.get_len().unwrap(), 8);
        dec.begin().unwrap();
        dec.end().unwrap();
        assert!(dec.at_end());
    }

    #[test]
    fn char_escapes_roundtrip() {
        for c in ['a', ' ', '\n', '\'', '\\', '\r', '✓'] {
            let mut enc = TextEncoder::new();
            enc.put_char(c);
            let bytes = enc.finish();
            let mut dec = TextDecoder::new(&bytes).unwrap();
            assert_eq!(dec.get_char().unwrap(), c, "char {c:?}");
        }
    }
}
