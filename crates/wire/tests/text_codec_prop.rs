//! Differential property tests for the text codec: the lazy cursor
//! [`TextDecoder`] and the allocation-free [`TextEncoder`] against the
//! eager copy-and-span tokenizer and the `to_string`/`format!`/`escape_*`
//! formatting they replaced, kept here verbatim as the reference.
//!
//! * (a) encoder output is byte-identical for every primitive and for
//!   nested `begin`/`end`;
//! * (b) on well-formed, truncated and hostile lines the lazy decoder
//!   yields the same values and the same [`WireError`] variants as the
//!   reference, for getter sequences that consume the whole line;
//! * (c) the one intended difference: a *peek* of the first `k` tokens
//!   succeeds even when a later token is malformed, while every
//!   full-parse constructor still rejects the line at construction;
//! * (d) the full-parse constructor's structural pre-scan, which jumps
//!   from quote to quote, accepts and rejects every line exactly as
//!   the per-token loop it replaced, kept here as the reference, with
//!   the same `Debug` of the result. The long sweep is `#[ignore]`d; run
//!   it in release:
//!
//! ```text
//! cargo test --release -p heidl-wire --test text_codec_prop -- --include-ignored
//! ```

use heidl_wire::{
    DecodeLimits, Decoder, Encoder, Protocol, TextDecoder, TextEncoder, TextProtocol, WireError,
    WireResult,
};
use proptest::prelude::*;

// ---- the reference: the pre-lazy implementation, copied ------------------

/// The old `TextEncoder`, minus the buffer pool.
#[derive(Default)]
struct RefEncoder {
    out: String,
    depth: u32,
}

impl RefEncoder {
    fn token(&mut self, t: &str) {
        if !self.out.is_empty() {
            self.out.push(' ');
        }
        self.out.push_str(t);
    }
}

fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

fn escape_char(c: char) -> String {
    match c {
        '\'' => "'\\''".to_owned(),
        '\\' => "'\\\\'".to_owned(),
        '\n' => "'\\n'".to_owned(),
        '\r' => "'\\r'".to_owned(),
        ' ' => "'\\s'".to_owned(),
        c => format!("'{c}'"),
    }
}

impl Encoder for RefEncoder {
    fn put_bool(&mut self, v: bool) {
        self.token(if v { "T" } else { "F" });
    }

    fn put_octet(&mut self, v: u8) {
        self.token(&v.to_string());
    }

    fn put_char(&mut self, v: char) {
        let t = escape_char(v);
        self.token(&t);
    }

    fn put_short(&mut self, v: i16) {
        self.token(&v.to_string());
    }

    fn put_ushort(&mut self, v: u16) {
        self.token(&v.to_string());
    }

    fn put_long(&mut self, v: i32) {
        self.token(&v.to_string());
    }

    fn put_ulong(&mut self, v: u32) {
        self.token(&v.to_string());
    }

    fn put_longlong(&mut self, v: i64) {
        self.token(&v.to_string());
    }

    fn put_ulonglong(&mut self, v: u64) {
        self.token(&v.to_string());
    }

    fn put_float(&mut self, v: f32) {
        // `{:?}` produces shortest round-trippable form.
        self.token(&format!("{v:?}"));
    }

    fn put_double(&mut self, v: f64) {
        self.token(&format!("{v:?}"));
    }

    fn put_string(&mut self, v: &str) {
        let t = escape_string(v);
        self.token(&t);
    }

    fn put_len(&mut self, n: u32) {
        self.token(&n.to_string());
    }

    fn begin(&mut self) {
        self.depth += 1;
        self.token("{");
    }

    fn end(&mut self) {
        assert!(self.depth > 0, "end() without matching begin() — stub generator bug");
        self.depth -= 1;
        self.token("}");
    }

    fn finish(&mut self) -> Vec<u8> {
        assert_eq!(self.depth, 0, "finish() with {} unclosed begin()s", self.depth);
        std::mem::take(&mut self.out).into_bytes()
    }

    fn position(&self) -> usize {
        self.out.len()
    }
}

/// One tokenized span into the decoder's normalized buffer. `quote`
/// records the token class — `0` for bare tokens, `b'"'` for string
/// tokens, `b'\''` for char tokens — which the getters check to detect
/// type confusion (a quoted `"42"` must not parse as a number).
#[derive(Debug, Clone, Copy)]
struct TokSpan {
    start: usize,
    end: usize,
    quote: u8,
}

/// The old `TextDecoder`, minus the buffer pool.
struct RefDecoder {
    buf: String,
    spans: Vec<TokSpan>,
    pos: usize,
    depth: u32,
    limits: DecodeLimits,
}

/// What the reference returns where the original looped forever.
fn hang() -> WireError {
    WireError::Malformed { what: "reference", detail: "the old tokenizer never returns".into() }
}

impl RefDecoder {
    fn with_limits(bytes: &[u8], limits: DecodeLimits) -> WireResult<Self> {
        let text = std::str::from_utf8(bytes).map_err(|e| WireError::Malformed {
            what: "text message",
            detail: format!("not valid UTF-8: {e}"),
        })?;
        let (buf, spans) = tokenize(text, &limits)?;
        Ok(RefDecoder { buf, spans, pos: 0, depth: 0, limits })
    }

    fn next(&mut self, what: &'static str) -> WireResult<(&str, u8)> {
        let sp = *self.spans.get(self.pos).ok_or(WireError::UnexpectedEnd { what })?;
        self.pos += 1;
        Ok((&self.buf[sp.start..sp.end], sp.quote))
    }

    fn parse_num<T: std::str::FromStr>(&mut self, what: &'static str) -> WireResult<T>
    where
        T::Err: std::fmt::Display,
    {
        let (t, quote) = self.next(what)?;
        if quote != 0 {
            return Err(WireError::Malformed {
                what,
                detail: format!("expected bare token, got quoted `{t}`"),
            });
        }
        t.parse().map_err(|e| WireError::Malformed { what, detail: format!("`{t}`: {e}") })
    }
}

fn tokenize(text: &str, limits: &DecodeLimits) -> WireResult<(String, Vec<TokSpan>)> {
    // The string bound is enforced here, while a token accumulates, so a
    // hostile message cannot grow the buffer by a giant token (`extra`
    // preserves the historical count: quoted tokens carried their opening
    // quote, and the `+ 1` mirrors CDR, whose string lengths include the
    // NUL byte).
    let max_tok = limits.max_string_bytes as usize;
    let over = |len: usize, extra: usize| -> WireResult<()> {
        if len + extra > max_tok {
            return Err(WireError::Bounds {
                what: "string",
                len: (len + extra) as u64,
                max: max_tok as u64,
            });
        }
        Ok(())
    };
    let mut buf = String::new();
    let mut spans = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '"' | '\'' => {
                let quote = c;
                chars.next();
                let start = buf.len();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some('n') => buf.push('\n'),
                            Some('r') => buf.push('\r'),
                            Some('s') => buf.push(' '),
                            Some(e) => buf.push(e),
                            None => {
                                return Err(WireError::Malformed {
                                    what: "quoted token",
                                    detail: "dangling escape".into(),
                                });
                            }
                        },
                        c if c == quote => {
                            closed = true;
                            break;
                        }
                        c => buf.push(c),
                    }
                    over(buf.len() - start, 2)?;
                }
                if !closed {
                    return Err(WireError::Malformed {
                        what: "quoted token",
                        detail: "unterminated quote".into(),
                    });
                }
                spans.push(TokSpan { start, end: buf.len(), quote: quote as u8 });
            }
            // The one line the copy adds: here the original pushed an empty
            // span without consuming `c` and never returned (the bug this PR
            // fixes), so the reference reports the hang instead of hanging.
            c if c.is_whitespace() => return Err(hang()),
            _ => {
                let start = buf.len();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() {
                        break;
                    }
                    buf.push(c);
                    chars.next();
                    over(buf.len() - start, 1)?;
                }
                spans.push(TokSpan { start, end: buf.len(), quote: 0 });
            }
        }
    }
    Ok((buf, spans))
}

impl Decoder for RefDecoder {
    fn get_bool(&mut self) -> WireResult<bool> {
        match self.next("boolean")? {
            ("T", 0) => Ok(true),
            ("F", 0) => Ok(false),
            (other, _) => Err(WireError::Malformed {
                what: "boolean",
                detail: format!("expected T or F, got `{other}`"),
            }),
        }
    }

    fn get_octet(&mut self) -> WireResult<u8> {
        self.parse_num("octet")
    }

    fn get_char(&mut self) -> WireResult<char> {
        let (t, quote) = self.next("char")?;
        if quote != b'\'' {
            return Err(WireError::Malformed {
                what: "char",
                detail: format!("expected quoted char, got `{t}`"),
            });
        }
        let mut chars = t.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(WireError::Malformed {
                what: "char",
                detail: format!("expected exactly one character, got `{t}`"),
            }),
        }
    }

    fn get_short(&mut self) -> WireResult<i16> {
        self.parse_num("short")
    }

    fn get_ushort(&mut self) -> WireResult<u16> {
        self.parse_num("unsigned short")
    }

    fn get_long(&mut self) -> WireResult<i32> {
        self.parse_num("long")
    }

    fn get_ulong(&mut self) -> WireResult<u32> {
        self.parse_num("unsigned long")
    }

    fn get_longlong(&mut self) -> WireResult<i64> {
        self.parse_num("long long")
    }

    fn get_ulonglong(&mut self) -> WireResult<u64> {
        self.parse_num("unsigned long long")
    }

    fn get_float(&mut self) -> WireResult<f32> {
        self.parse_num("float")
    }

    fn get_double(&mut self) -> WireResult<f64> {
        self.parse_num("double")
    }

    fn get_string(&mut self) -> WireResult<String> {
        let (t, quote) = self.next("string")?;
        if quote == b'"' {
            Ok(t.to_owned())
        } else {
            Err(WireError::Malformed {
                what: "string",
                detail: format!("expected quoted string, got `{t}`"),
            })
        }
    }

    fn skip_string(&mut self) -> WireResult<()> {
        let (t, quote) = self.next("string")?;
        if quote == b'"' {
            Ok(())
        } else {
            Err(WireError::Malformed {
                what: "string",
                detail: format!("expected quoted string, got `{t}`"),
            })
        }
    }

    fn get_len(&mut self) -> WireResult<u32> {
        let n: u32 = self.parse_num("sequence length")?;
        let max = self.limits.max_sequence_len;
        if n > max {
            return Err(WireError::Bounds { what: "sequence", len: n.into(), max: max.into() });
        }
        Ok(n)
    }

    fn begin(&mut self) -> WireResult<()> {
        match self.next("begin marker")? {
            ("{", 0) => {}
            (other, _) => {
                return Err(WireError::Nesting { detail: format!("expected `{{`, got `{other}`") })
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
            ("}", 0) => {
                self.depth = self.depth.saturating_sub(1);
                Ok(())
            }
            (other, _) => {
                Err(WireError::Nesting { detail: format!("expected `}}`, got `{other}`") })
            }
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.spans.len()
    }
}

// ---- (a) the encoder ------------------------------------------------------

/// One marshaling step.
#[derive(Debug, Clone)]
enum Put {
    Bool(bool),
    Octet(u8),
    Char(char),
    Short(i16),
    UShort(u16),
    Long(i32),
    ULong(u32),
    LongLong(i64),
    ULongLong(u64),
    Float(f32),
    Double(f64),
    Str(String),
    Len(u32),
    Group(Vec<Put>),
}

fn put_strategy() -> impl Strategy<Value = Put> {
    let chars = prop_oneof![
        any::<char>(),
        (0usize..8).prop_map(|i| ['\'', '"', '\\', '\n', '\r', ' ', '\t', '\u{b}'][i]),
    ];
    // Every bit pattern (all NaN payloads, subnormals, both infinities),
    // decimals `±m / 10^d` (which random bits almost never are, and which
    // the encoder's and decoder's `f64` fast paths take when `m` has at
    // most 15 digits), plus the named edge cases so each shows up in
    // every run.
    let doubles = prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        proptest::num::f64::NORMAL,
        (0..=100_000_000_000_000_000u64, 0..=17i32, any::<bool>()).prop_map(|(m, d, negative)| {
            let v = m as f64 / 10f64.powi(d);
            if negative {
                -v
            } else {
                v
            }
        }),
        (0usize..10).prop_map(|i| {
            let tiny = f64::from_bits(1);
            [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                f64::MIN_POSITIVE,
                tiny,
                1e16,
                1e15,
                1e-7,
            ][i]
        }),
    ];
    let floats = prop_oneof![
        any::<u32>().prop_map(f32::from_bits),
        (0usize..6).prop_map(|i| {
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::from_bits(1), 1.5][i]
        }),
    ];
    let longlongs = prop_oneof![any::<i64>(), (0usize..3).prop_map(|i| [i64::MIN, -1, 0][i])];
    let ulonglongs = prop_oneof![any::<u64>(), (0usize..2).prop_map(|i| [u64::MAX, 0][i])];
    let leaf = prop_oneof![
        any::<bool>().prop_map(Put::Bool),
        any::<u8>().prop_map(Put::Octet),
        chars.prop_map(Put::Char),
        any::<i16>().prop_map(Put::Short),
        any::<u16>().prop_map(Put::UShort),
        any::<i32>().prop_map(Put::Long),
        any::<u32>().prop_map(Put::ULong),
        longlongs.prop_map(Put::LongLong),
        ulonglongs.prop_map(Put::ULongLong),
        floats.prop_map(Put::Float),
        doubles.prop_map(Put::Double),
        "\\PC{0,12}".prop_map(Put::Str),
        // Dense in escapable bytes and multi-byte UTF-8, and long enough
        // to span several of the byte search's eight-byte words.
        "[a\"'\\\\\n\r\t é✓😀]{0,48}".prop_map(Put::Str),
        any::<u32>().prop_map(Put::Len),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Put::Group)
    })
}

fn put(step: &Put, enc: &mut dyn Encoder) {
    match step {
        Put::Bool(v) => enc.put_bool(*v),
        Put::Octet(v) => enc.put_octet(*v),
        Put::Char(v) => enc.put_char(*v),
        Put::Short(v) => enc.put_short(*v),
        Put::UShort(v) => enc.put_ushort(*v),
        Put::Long(v) => enc.put_long(*v),
        Put::ULong(v) => enc.put_ulong(*v),
        Put::LongLong(v) => enc.put_longlong(*v),
        Put::ULongLong(v) => enc.put_ulonglong(*v),
        Put::Float(v) => enc.put_float(*v),
        Put::Double(v) => enc.put_double(*v),
        Put::Str(v) => enc.put_string(v),
        Put::Len(v) => enc.put_len(*v),
        Put::Group(steps) => {
            enc.begin();
            steps.iter().for_each(|s| put(s, enc));
            enc.end();
        }
    }
}

fn encode(steps: &[Put], enc: &mut dyn Encoder) -> Vec<u8> {
    steps.iter().for_each(|s| put(s, enc));
    enc.finish()
}

// ---- (b) the decoder ------------------------------------------------------

/// One unmarshaling step; `get` folds each result into a comparable form.
#[derive(Debug, Clone, Copy)]
enum Get {
    Bool,
    Octet,
    Char,
    Short,
    UShort,
    Long,
    ULong,
    LongLong,
    ULongLong,
    Float,
    Double,
    Str,
    SkipStr,
    Len,
    Begin,
    End,
}

#[rustfmt::skip]
const GETS: [Get; 16] = [
    Get::Bool, Get::Octet, Get::Char, Get::Short, Get::UShort, Get::Long, Get::ULong,
    Get::LongLong, Get::ULongLong, Get::Float, Get::Double, Get::Str, Get::SkipStr, Get::Len,
    Get::Begin, Get::End,
];

/// A value rendered so floats compare by bits (NaN == NaN), or an error
/// reduced to its variant and `what` — details may word things differently
/// and `Bounds::len` counts differently, the variant may not.
fn outcome<T: std::fmt::Debug>(r: WireResult<T>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(WireError::UnexpectedEnd { what }) => format!("UnexpectedEnd({what})"),
        Err(WireError::Malformed { what, .. }) => format!("Malformed({what})"),
        Err(WireError::Nesting { .. }) => "Nesting".into(),
        Err(WireError::Bounds { what, .. }) => format!("Bounds({what})"),
    }
}

fn get(step: Get, dec: &mut dyn Decoder) -> String {
    match step {
        Get::Bool => outcome(dec.get_bool()),
        Get::Octet => outcome(dec.get_octet()),
        Get::Char => outcome(dec.get_char()),
        Get::Short => outcome(dec.get_short()),
        Get::UShort => outcome(dec.get_ushort()),
        Get::Long => outcome(dec.get_long()),
        Get::ULong => outcome(dec.get_ulong()),
        Get::LongLong => outcome(dec.get_longlong()),
        Get::ULongLong => outcome(dec.get_ulonglong()),
        Get::Float => outcome(dec.get_float().map(f32::to_bits)),
        Get::Double => outcome(dec.get_double().map(f64::to_bits)),
        Get::Str => outcome(dec.get_string()),
        Get::SkipStr => outcome(dec.skip_string()),
        Get::Len => outcome(dec.get_len()),
        Get::Begin => outcome(dec.begin()),
        Get::End => outcome(dec.end()),
    }
}

/// The getters that read `steps` back, in order.
fn matching_gets(steps: &[Put], out: &mut Vec<Get>) {
    for step in steps {
        let get = match step {
            Put::Bool(_) => Get::Bool,
            Put::Octet(_) => Get::Octet,
            Put::Char(_) => Get::Char,
            Put::Short(_) => Get::Short,
            Put::UShort(_) => Get::UShort,
            Put::Long(_) => Get::Long,
            Put::ULong(_) => Get::ULong,
            Put::LongLong(_) => Get::LongLong,
            Put::ULongLong(_) => Get::ULongLong,
            Put::Float(_) => Get::Float,
            Put::Double(_) => Get::Double,
            Put::Str(_) => Get::Str,
            Put::Len(_) => Get::Len,
            Put::Group(inner) => {
                out.push(Get::Begin);
                matching_gets(inner, out);
                Get::End
            }
        };
        out.push(get);
    }
}

fn limits_strategy() -> impl Strategy<Value = DecodeLimits> {
    prop_oneof![
        Just(DecodeLimits::default()),
        (1u32..24, 0u32..6, 0u32..4).prop_map(|(s, n, d)| {
            DecodeLimits::default()
                .with_max_string_bytes(s)
                .with_max_sequence_len(n)
                .with_max_depth(d)
        }),
    ]
}

/// Fragments a hostile peer (or a clumsy telnet user) might type, glued
/// together with no regard for token boundaries. `\u{b}` and `\u{a0}` are
/// the whitespace the old tokenizer hung on outside quotes; the property
/// skips those lines, but they still appear inside quotes.
#[rustfmt::skip]
const FRAGMENTS: &[&[u8]] = &[
    b" ", b"  ", b"\t", b"\r", b"\n", b"\"", b"'", b"\\", b"\\n", b"\\s", b"\\\"", b"{", b"}",
    b"T", b"F", b"0", b"7", b"-", b"+", b".", b"e", b"-0", b"+5", b"007", b"256", b"65536",
    b"4294967296", b"18446744073709551615", b"18446744073709551616", b"-9223372036854775808",
    b"-9223372036854775809", b"1.5", b"1e400", b"NaN", b"inf", b"-inf", b"0x10", b"1_000",
    b"\"~tok\"", b"abc", "é".as_bytes(), "漢".as_bytes(), "١٢".as_bytes(), b"\x0b", b"\xc2\xa0",
    b"\xff", b"\xc3",
];

fn hostile_line() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..24)
        .prop_map(|picks| picks.iter().flat_map(|&i| FRAGMENTS[i].iter().copied()).collect())
}

/// Both decoders accept or reject `line` alike, and accepted lines read
/// back alike under `gets` followed by as many extra getters (cycled from
/// `gets`, or all `get_bool`) as it takes to consume the whole line.
fn assert_same_decoding(
    line: &[u8],
    limits: DecodeLimits,
    gets: &[Get],
) -> Result<(), TestCaseError> {
    let reference = RefDecoder::with_limits(line, limits);
    if reference.as_ref().is_err_and(|e| *e == hang()) {
        return Ok(()); // the bug, not the contract: see `hostile_input.rs`
    }
    let lazy = TextDecoder::with_limits(line, limits);
    let shown = String::from_utf8_lossy(line).into_owned();
    let (mut reference, mut lazy) = match (reference, lazy) {
        (Ok(r), Ok(l)) => (r, l),
        (r, l) => {
            prop_assert_eq!(
                outcome(r.map(|_| ())),
                outcome(l.map(|_| ())),
                "constructing {}",
                shown
            );
            return Ok(());
        }
    };
    // The protocol's owning constructor is the same decoder.
    let mut owned = TextProtocol.decoder_with_limits(line.to_vec(), &limits).unwrap();
    let extra =
        (0..=line.len()).map(|i| gets.get(i % gets.len().max(1)).copied().unwrap_or(Get::Bool));
    for (i, step) in gets.iter().copied().chain(extra).enumerate() {
        prop_assert_eq!(reference.at_end(), lazy.at_end(), "at_end before step {} of {}", i, shown);
        if i >= gets.len() && lazy.at_end() {
            break;
        }
        let expected = get(step, &mut reference);
        prop_assert_eq!(&expected, &get(step, &mut lazy), "step {} ({:?}) of {}", i, step, shown);
        prop_assert_eq!(&expected, &get(step, owned.as_mut()), "owned step {} of {}", i, shown);
    }
    prop_assert!(
        reference.at_end() && lazy.at_end() && owned.at_end(),
        "line not consumed: {}",
        shown
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) Byte-identical output for every primitive and for nesting.
    #[test]
    fn encoder_output_is_byte_identical(steps in proptest::collection::vec(put_strategy(), 0..12)) {
        let new = encode(&steps, &mut TextEncoder::new());
        let old = encode(&steps, &mut RefEncoder::default());
        prop_assert_eq!(String::from_utf8_lossy(&new), String::from_utf8_lossy(&old));
        // ... and through the protocol's boxed encoder, reused after finish.
        let mut boxed = TextProtocol.encoder();
        prop_assert_eq!(&encode(&steps, boxed.as_mut()), &old);
        prop_assert_eq!(&encode(&steps, boxed.as_mut()), &old);
    }

    /// (b) Well-formed lines: the matching getters return the same values,
    /// and mismatched getters fail alike.
    #[test]
    fn well_formed_lines_decode_alike(
        steps in proptest::collection::vec(put_strategy(), 0..10),
        wrong in proptest::collection::vec(0usize..GETS.len(), 0..12),
        limits in limits_strategy(),
    ) {
        let line = encode(&steps, &mut TextEncoder::new());
        let mut gets = Vec::new();
        matching_gets(&steps, &mut gets);
        assert_same_decoding(&line, limits, &gets)?;
        let wrong: Vec<Get> = wrong.iter().map(|&i| GETS[i]).collect();
        assert_same_decoding(&line, limits, &wrong)?;
    }

    /// (b) Truncated lines: cut anywhere, mid-token and mid-character.
    #[test]
    fn truncated_lines_decode_alike(
        steps in proptest::collection::vec(put_strategy(), 1..8),
        cut in any::<u16>(),
        limits in limits_strategy(),
    ) {
        let line = encode(&steps, &mut TextEncoder::new());
        let mut gets = Vec::new();
        matching_gets(&steps, &mut gets);
        assert_same_decoding(&line[..usize::from(cut) % (line.len() + 1)], limits, &gets)?;
    }

    /// (b) Hostile lines under arbitrary getter sequences.
    #[test]
    fn hostile_lines_decode_alike(
        line in hostile_line(),
        gets in proptest::collection::vec(0usize..GETS.len(), 0..16),
        limits in limits_strategy(),
    ) {
        let gets: Vec<Get> = gets.iter().map(|&i| GETS[i]).collect();
        assert_same_decoding(&line, limits, &gets)?;
    }

    /// (c) A peek reads the tokens before a malformed one; every
    /// full-parse constructor rejects the whole line up front.
    #[test]
    fn peek_is_lazy_about_later_errors(
        head in proptest::collection::vec(any::<u32>(), 0..6),
        tail in 0usize..4,
    ) {
        let limits = DecodeLimits::default().with_max_string_bytes(16);
        let (tail, error): (&[u8], &str) = [
            (b"\"never closed".as_slice(), "Malformed(quoted token)"),
            (b"'\\".as_slice(), "Malformed(quoted token)"),
            (b"12345678901234567".as_slice(), "Bounds(string)"),
            (b"\xff\xfe".as_slice(), "Malformed(unsigned long)"),
        ][tail];
        let mut line = Vec::new();
        for n in &head {
            line.extend_from_slice(format!("{n} ").as_bytes());
        }
        line.extend_from_slice(tail);

        heidl_wire::peek(&TextProtocol, &line, &limits, |peek| {
            for n in &head {
                prop_assert_eq!(peek.get_ulong(), Ok(*n));
            }
            prop_assert!(!peek.at_end());
            prop_assert_eq!(outcome(peek.get_ulong()), error);
            Ok(())
        })
        .unwrap()?;

        prop_assert!(TextDecoder::with_limits(&line, limits).is_err());
        prop_assert!(TextProtocol.decoder_with_limits(line.clone(), &limits).is_err());
        if error != "Bounds(string)" {
            prop_assert!(TextDecoder::new(&line).is_err());
            prop_assert!(TextProtocol.decoder(line.clone()).is_err());
        }
    }
}

// ---- (d) the pre-scan -----------------------------------------------------

/// The bytes that separate tokens.
const SEPS: [u8; 4] = [b' ', b'\t', b'\n', b'\r'];

fn skip_seps(line: &[u8], at: usize) -> usize {
    line[at..].iter().position(|b| !SEPS.contains(b)).map_or(line.len(), |n| at + n)
}

/// The token at `at` (not a separator), scanned as the decoder's getters
/// scan it: the offset just past it, or its error.
fn scan_token(line: &[u8], at: usize, limits: &DecodeLimits) -> WireResult<usize> {
    let max = limits.max_string_bytes as usize;
    let over = |len: usize| match len > max {
        true => Err(WireError::Bounds { what: "string", len: len as u64, max: max as u64 }),
        false => Ok(()),
    };
    let quote = line[at];
    if quote != b'"' && quote != b'\'' {
        let end = line[at..].iter().position(|b| SEPS.contains(b)).map_or(line.len(), |n| at + n);
        over(end - at + 1)?;
        return Ok(end);
    }
    let (start, mut i, mut escapes) = (at + 1, at + 1, 0);
    let detail = loop {
        i += line[i..].iter().position(|&b| b == quote || b == b'\\').unwrap_or(line.len() - i);
        over(i - start - escapes + 2)?;
        match line.get(i) {
            None => break "unterminated quote",
            Some(b'\\') if i + 1 == line.len() => break "dangling escape",
            Some(b'\\') => (i, escapes) = (i + 2, escapes + 1),
            Some(_) => return Ok(i + 1),
        }
    };
    Err(WireError::Malformed { what: "quoted token", detail: detail.into() })
}

/// The pre-scan before it went quote to quote: UTF-8, then every token
/// in turn.
fn prescan_by_tokens(line: &[u8], limits: &DecodeLimits) -> WireResult<()> {
    std::str::from_utf8(line).map_err(|e| WireError::Malformed {
        what: "text message",
        detail: format!("not valid UTF-8: {e}"),
    })?;
    let mut at = skip_seps(line, 0);
    while at < line.len() {
        at = skip_seps(line, scan_token(line, at, limits)?);
    }
    Ok(())
}

/// Every string bound the pre-scan must agree under: small ones, so a
/// line has bare tokens over the bound and the pass switches from
/// scanning tokens to jumping between quotes partway through; the
/// line's own length and its neighbours, where the switch comes at the
/// first token; and the default, where it never scans a bare token.
fn prescan_limits(len: usize) -> impl Iterator<Item = DecodeLimits> {
    let max = |m: usize| DecodeLimits { max_string_bytes: m as u32, ..DecodeLimits::default() };
    [2, 3, 5, 8, 16, len.saturating_sub(1), len, len + 1]
        .map(max)
        .into_iter()
        .chain([DecodeLimits::default()])
}

/// The full-parse constructor fails exactly where the reference does,
/// with the same error, under every bound.
fn assert_same_prescan(line: &[u8]) -> Result<(), TestCaseError> {
    for limits in prescan_limits(line.len()) {
        let reference = format!("{:?}", prescan_by_tokens(line, &limits));
        let structural = format!("{:?}", TextDecoder::with_limits(line, limits).map(|_| ()));
        prop_assert_eq!(
            &reference,
            &structural,
            "{:?} under {} string bytes",
            String::from_utf8_lossy(line),
            limits.max_string_bytes
        );
    }
    Ok(())
}

/// The pre-scan's alphabet: both quotes and the escape, every
/// separator, U+000B (not a separator), two letters, and the bytes of
/// `é` (`\xc3\xa9`), which alone or out of order are not UTF-8, as
/// `\xff` never is.
const PRESCAN_BYTES: [u8; 13] =
    [b'"', b'\'', b'\\', b' ', b'\t', b'\r', b'\n', b'\x0b', b'a', b'b', 0xc3, 0xa9, 0xff];

/// Lines the pass must tell apart: a quote inside a bare token, a quote
/// right after a closing one, bare text glued to a closing quote, an
/// escape at the end, separators of every kind, multi-byte and invalid
/// UTF-8.
const PRESCAN_LINES: &[&[u8]] = &[
    b"ab\"c",
    b"x'y",
    b"ab\"c \"d e\"",
    b"x'y 'z",
    b"\"a\"\"b\"",
    b"\"a\"'b'",
    b"\"a\"'b",
    b"\"a\"b\"c",
    b"\"a\"b\"c\"",
    b"\"a\"b \"c",
    b"\"ab\\",
    b"'\\",
    b"\"a\\\"\" b\\",
    b"1 2 \"x\\",
    b"\"a\r\nb\"\r\n'\\n'\t\"c\"\x0b\"d\"",
    b"\x0b\"a b\" \x0b'c",
    "\"é\" é\"ü 'ß'".as_bytes(),
    b"\"a\" \xff",
    b"\"\xc3\" b",
    b"abc def ghi \"j\"",
    b"abcdefghijklmnop \"q\"",
    b"a b c d e f g h i j k l m n o p \"q",
    b"",
    b" \t\r\n",
];

#[test]
fn prescan_fixed_lines_fail_as_the_token_loop_does() {
    for line in PRESCAN_LINES {
        assert_same_prescan(line).unwrap();
    }
}

/// Every line of up to `len` bytes over [`PRESCAN_BYTES`].
fn prescan_sweep(len: u32) {
    let n = PRESCAN_BYTES.len();
    let mut line = Vec::new();
    for len in 0..=len {
        for mut i in 0..n.pow(len) {
            line.clear();
            for _ in 0..len {
                line.push(PRESCAN_BYTES[i % n]);
                i /= n;
            }
            assert_same_prescan(&line).unwrap();
        }
    }
}

#[test]
fn prescan_agrees_on_every_short_line() {
    prescan_sweep(4);
}

#[test]
#[ignore = "the long sweep: about a minute in release, run it with --release"]
fn prescan_agrees_on_every_line_of_six_bytes() {
    prescan_sweep(6);
}

fn prescan_line() -> impl Strategy<Value = Vec<u8>> {
    // Mostly the alphabet; one byte in six is any byte.
    let byte = (0..PRESCAN_BYTES.len() + 3, any::<u8>())
        .prop_map(|(i, any)| PRESCAN_BYTES.get(i).copied().unwrap_or(any));
    proptest::collection::vec(byte, 0..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// (d) Random lines dense in quotes, escapes and separators, and
    /// lines of hostile fragments.
    #[test]
    fn prescan_fails_as_the_token_loop_does(line in prescan_line(), hostile in hostile_line()) {
        assert_same_prescan(&line)?;
        assert_same_prescan(&hostile)?;
    }
}
