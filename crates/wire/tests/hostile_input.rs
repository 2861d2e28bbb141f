//! Malformed-input hardening: arbitrary, truncated, and
//! oversized-length byte streams fed to both protocol decoders and both
//! deframers must produce errors, never panics — and allocations must
//! respect [`DecodeLimits`].
//!
//! These are the wire-level half of the server's overload protection: a
//! bootstrap port is reachable by `telnet`, so every byte sequence a peer
//! can type (or a fuzzer can emit) has to come back as a clean
//! `WireError`.

use heidl_wire::{
    CdrProtocol, DecodeLimits, Decoder, Protocol, TextProtocol, WireError, WireResult,
};
use proptest::prelude::*;

/// Tight limits so the properties exercise the bounds, not just UTF-8 and
/// framing validation.
fn tight() -> DecodeLimits {
    DecodeLimits::default()
        .with_max_frame_bytes(4 * 1024)
        .with_max_string_bytes(512)
        .with_max_sequence_len(256)
        .with_max_depth(8)
}

/// Pulls every getter once against the decoder; all we assert is
/// error-not-panic (and bounded allocation, checked separately).
fn drain_decoder(mut dec: Box<dyn Decoder>) {
    let _ = dec.get_bool();
    let _ = dec.get_octet();
    let _ = dec.get_char();
    let _ = dec.get_short();
    let _ = dec.get_ushort();
    let _ = dec.get_long();
    let _ = dec.get_ulong();
    let _ = dec.get_longlong();
    let _ = dec.get_ulonglong();
    let _ = dec.get_float();
    let _ = dec.get_double();
    let _ = dec.get_string();
    let _ = dec.get_len();
    let _ = dec.begin();
    let _ = dec.end();
    let _ = dec.at_end();
}

fn protocols() -> [Box<dyn Protocol>; 2] {
    [Box::new(TextProtocol), Box::new(CdrProtocol)]
}

/// Repeatedly deframes until the buffer yields nothing more; every
/// extracted body goes through the limited decoder.
fn pump(p: &dyn Protocol, mut buf: Vec<u8>, limits: &DecodeLimits) -> WireResult<()> {
    for _ in 0..64 {
        match p.deframe_limited(&mut buf, limits)? {
            Some(body) => drain_decoder(p.decoder_with_limits(body, limits)?),
            None => break,
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary garbage bytes: both decoders fail cleanly, never panic.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let limits = tight();
        for p in protocols() {
            if let Ok(dec) = p.decoder_with_limits(bytes.clone(), &limits) {
                drain_decoder(dec);
            }
            let _ = pump(p.as_ref(), bytes.clone(), &limits);
        }
    }

    /// Truncating a *valid* message at every prefix length still only
    /// produces errors (usually `UnexpectedEnd`), never panics.
    #[test]
    fn truncated_valid_messages_never_panic(cut in 0usize..64, n in any::<i64>(), s in ".{0,24}") {
        let limits = tight();
        for p in protocols() {
            let mut enc = p.encoder();
            enc.put_longlong(n);
            enc.put_string(&s);
            enc.begin();
            enc.put_len(3);
            enc.end();
            let body = enc.finish();
            let cut = cut.min(body.len());
            if let Ok(dec) = p.decoder_with_limits(body[..cut].to_vec(), &limits) {
                drain_decoder(dec);
            }
        }
    }

    /// A hostile CDR length prefix far beyond the limit is a `Bounds`
    /// error — the decoder must not allocate anywhere near that much.
    #[test]
    fn oversized_cdr_length_prefixes_are_bounded(len in 513u32..u32::MAX) {
        let limits = tight();
        let mut body = len.to_le_bytes().to_vec();
        body.extend_from_slice(&[0u8; 8]); // a few token body bytes
        let mut dec = CdrProtocol.decoder_with_limits(body, &limits).unwrap();
        let bounded = matches!(
            dec.get_string(),
            Err(WireError::Bounds { .. } | WireError::UnexpectedEnd { .. })
        );
        prop_assert!(bounded, "oversized string prefix not bounded");
        // get_len on the same prefix is bounded by max_sequence_len.
        let mut dec = CdrProtocol
            .decoder_with_limits(len.to_le_bytes().to_vec(), &limits)
            .unwrap();
        let bounded = matches!(dec.get_len(), Err(WireError::Bounds { .. }));
        prop_assert!(bounded, "oversized sequence prefix not bounded");
    }

    /// A GIOP header whose length field exceeds the frame bound is
    /// rejected from the header alone, before the body streams in.
    #[test]
    fn oversized_giop_frames_rejected_from_header(len in 4097u32..u32::MAX) {
        let limits = tight();
        let mut hdr = b"GIOP\x01\x00\x01\x00".to_vec();
        hdr.extend_from_slice(&len.to_le_bytes());
        let rejected = matches!(
            CdrProtocol.deframe_limited(&mut hdr, &limits),
            Err(WireError::Bounds { .. })
        );
        prop_assert!(rejected, "oversized GIOP header not rejected");
    }

    /// An endless text line stops being buffered once it passes the
    /// frame bound, so a peer cannot grow server memory newline-free.
    #[test]
    fn endless_text_lines_stop_buffering(extra in 1usize..2048) {
        let limits = tight();
        let mut buf = vec![b'a'; 4 * 1024 + extra];
        let stopped = matches!(
            TextProtocol.deframe_limited(&mut buf, &limits),
            Err(WireError::Bounds { what: "text frame", .. })
        );
        prop_assert!(stopped, "endless text line kept buffering");
    }

    /// Oversized text tokens are rejected during tokenization, so the
    /// decoder never materializes a string beyond the bound.
    #[test]
    fn oversized_text_tokens_are_bounded(extra in 1usize..1024, quoted in any::<bool>()) {
        let limits = tight();
        let inner = "x".repeat(512 + extra);
        let msg = if quoted { format!("\"{inner}\"") } else { inner };
        let bounded = matches!(
            TextProtocol.decoder_with_limits(msg.into_bytes(), &limits),
            Err(WireError::Bounds { what: "string", .. })
        );
        prop_assert!(bounded, "oversized text token not bounded");
    }

    /// Nesting bombs (`{{{{...`) hit the depth bound on both protocols.
    #[test]
    fn nesting_bombs_hit_the_depth_bound(depth in 9u32..64) {
        let limits = tight();
        for p in protocols() {
            let body = match p.name() {
                "tcp" => "{ ".repeat(depth as usize).into_bytes(),
                _ => Vec::new(), // CDR begins are virtual: drive the decoder directly
            };
            let mut dec = p.decoder_with_limits(body, &limits).unwrap();
            let mut hit = false;
            for _ in 0..depth {
                if matches!(dec.begin(), Err(WireError::Bounds { what: "nesting depth", .. })) {
                    hit = true;
                    break;
                }
            }
            prop_assert!(hit, "{}: depth bound never enforced", p.name());
        }
    }

    /// Valid frames interleaved with garbage framing still never panic,
    /// and valid in-bound messages round-trip through the limited path.
    #[test]
    fn valid_messages_survive_the_limited_path(n in any::<i32>(), s in "[a-z]{0,32}") {
        let limits = tight();
        for p in protocols() {
            let mut enc = p.encoder();
            enc.put_long(n);
            enc.put_string(&s);
            let body = enc.finish();
            let mut stream = Vec::new();
            p.frame(&body, &mut stream);
            let got = p.deframe_limited(&mut stream, &limits).unwrap().unwrap();
            let mut dec = p.decoder_with_limits(got, &limits).unwrap();
            prop_assert_eq!(dec.get_long().unwrap(), n);
            prop_assert_eq!(dec.get_string().unwrap(), s.clone());
        }
    }
}

/// Every Unicode whitespace character, both quotes, the escape character
/// and the structure markers, plus a few ordinary token bytes.
const TRICKY: &[char] = &[
    '\t', '\n', '\u{b}', '\u{c}', '\r', ' ', '\u{85}', '\u{a0}', '\u{1680}', '\u{2000}',
    '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}',
    '\u{2009}', '\u{200a}', '\u{2028}', '\u{2029}', '\u{202f}', '\u{205f}', '\u{3000}', '"', '\'',
    '\\', '{', '}', 'T', '1', '-', '.', 'x',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Regression: the eager tokenizer skipped only `' ' \t \n \r` between
    /// tokens but ended a bare token on any Unicode whitespace, so a line
    /// holding U+000B (or U+0085, U+00A0, ...) outside quotes produced
    /// empty tokens forever. Valid-UTF-8 lines over that alphabet must
    /// construct (or fail) and drain in bounded steps: a token is at
    /// least one byte, so a line never yields more tokens than bytes.
    #[test]
    fn unicode_whitespace_never_wedges_the_text_decoder(
        picks in proptest::collection::vec(0usize..TRICKY.len(), 0..96),
    ) {
        let line: String = picks.iter().map(|&i| TRICKY[i]).collect();
        let limits = tight();
        if let Ok(dec) = TextProtocol.decoder_with_limits(line.clone().into_bytes(), &limits) {
            drain_decoder(dec);
        }
        // The lazy peek decoder reports a malformed token when it reaches
        // it (and stays there), so its drain is bounded by count.
        heidl_wire::peek(&TextProtocol, line.as_bytes(), &limits, |peek| {
            for _ in 0..=line.len() {
                let _ = peek.get_string().is_err() && peek.get_double().is_err();
            }
        })
        .unwrap();
        if let Ok(mut dec) = TextProtocol.decoder_with_limits(line.clone().into_bytes(), &limits) {
            let mut tokens = 0;
            while !dec.at_end() {
                let _ = dec.get_bool(); // consumes one token of any class
                tokens += 1;
                prop_assert!(tokens <= line.len(), "more tokens than bytes in {line:?}");
            }
        }
    }
}

/// The line from the bug report, verbatim.
#[test]
fn vertical_tab_line_returns() {
    let mut dec = heidl_wire::TextDecoder::new(b"1 \x0b 2").unwrap();
    assert_eq!(dec.get_long().unwrap(), 1);
    assert!(matches!(dec.get_long(), Err(WireError::Malformed { .. })));
    assert_eq!(dec.get_long().unwrap(), 2);
    assert!(dec.at_end());
}

/// Double tokens the `f64` fast path must leave to `str::parse` (a point
/// at either end, two points, signs it does not take, exponents, hex,
/// words, 16 and 17 digits, the wrong token class), and a few it takes.
const DOUBLE_TOKENS: &[&str] = &[
    "1.",
    ".5",
    "-.5",
    ".",
    "-.",
    "1.2.3",
    "-",
    "--1",
    "+1.5",
    "1e5",
    "1E-3",
    "986.5452293525111",
    "7764096.3149999995",
    "1234567890123456",
    "0x1p3",
    "inf",
    "NaN",
    "-0",
    "-0.0",
    "007.50",
    "\"1.5\"",
    "'1'",
    "2.5",
    "-7.25",
    "0.0001",
    "123456789012345",
    "1234567",
    "-123456",
    "1.23456",
];

/// What `get_double` returned for `token` before it had a fast path: the
/// scan's bound (it counts a quoted token's quotes, and one byte more
/// for a bare token), the token class, then `str::parse`. None of the
/// tokens holds an escape.
fn double_by_str_parse(token: &str, max: u32) -> WireResult<u64> {
    let quoted = token.starts_with(['"', '\'']);
    let len = token.len() as u64 + u64::from(!quoted);
    if len > u64::from(max) {
        return Err(WireError::Bounds { what: "string", len, max: max.into() });
    }
    if quoted {
        let detail = format!("expected bare token, got quoted `{}`", &token[1..token.len() - 1]);
        return Err(WireError::Malformed { what: "double", detail });
    }
    token
        .parse::<f64>()
        .map(f64::to_bits)
        .map_err(|e| WireError::Malformed { what: "double", detail: format!("`{token}`: {e}") })
}

/// Every hostile double token, and digit runs that fit the string bound
/// and that are one byte over it, read lazily (so the getter, not the
/// pre-scan, meets the token): the same bits or the same `WireError` as
/// `str::parse`, and a good token leaves the cursor on the next one.
#[test]
fn hostile_double_tokens_read_as_str_parse_does() {
    for max in [8, 512] {
        let limits = DecodeLimits::default().with_max_string_bytes(max);
        let runs = ["1".repeat(max as usize - 1), "1".repeat(max as usize)];
        let tokens = DOUBLE_TOKENS.iter().copied().chain(runs.iter().map(String::as_str));
        for token in tokens {
            let line = format!("{token} 2.5");
            heidl_wire::peek(&TextProtocol, line.as_bytes(), &limits, |dec| {
                let got = dec.get_double().map(f64::to_bits);
                assert_eq!(got, double_by_str_parse(token, max), "`{token}` under {max} bytes");
                if got.is_ok() {
                    assert_eq!(dec.get_double(), Ok(2.5), "after `{token}`");
                    assert!(dec.at_end());
                }
            })
            .unwrap();
        }
    }
}

/// A quoted token that the full-parse pre-scan rejects.
fn quoted(detail: &str) -> WireResult<()> {
    Err(WireError::Malformed { what: "quoted token", detail: detail.into() })
}

/// A token over the string bound.
fn over(len: u64, max: u64) -> WireResult<()> {
    Err(WireError::Bounds { what: "string", len, max })
}

/// Not UTF-8.
fn not_utf8(detail: &str) -> WireResult<()> {
    Err(WireError::Malformed { what: "text message", detail: format!("not valid UTF-8: {detail}") })
}

/// The full-parse constructor on lines where a quote does and does not
/// open a token, under a string bound (`0` for the default): a quote
/// inside a bare token (after a letter or U+000B, which is no
/// separator), a quote right after a closing one, bare text glued to a
/// closing quote, an escape at the end, CR and LF inside and between
/// tokens, multi-byte and invalid UTF-8, and bare tokens just over and
/// just under the bound.
#[test]
fn quotes_open_tokens_only_at_token_starts() {
    let cases: &[(&[u8], u32, WireResult<()>)] = &[
        (b"ab\"c", 0, Ok(())),
        (b"x'y", 0, Ok(())),
        (b"ab\"c x'y 'z'", 0, Ok(())),
        (b"\"a\"\"b\"", 0, Ok(())),
        (b"\"a\"'b'", 0, Ok(())),
        (b"\"a\"b\"c", 0, Ok(())),
        (b"\"a\"\"b", 0, quoted("unterminated quote")),
        (b"\"a\"'b", 0, quoted("unterminated quote")),
        (b"\"a\"b \"c", 0, quoted("unterminated quote")),
        (b"\"ab\\", 0, quoted("dangling escape")),
        (b"1 '\\", 0, quoted("dangling escape")),
        (b"\"a\\\"\" b\\", 0, Ok(())),
        (b"\"a\r\nb\"\r\n'\\n'\t\"c\"", 0, Ok(())),
        (b"\x0b\"a b\"", 0, Ok(())),
        (b"\"a\" \x0b\"b", 0, Ok(())),
        (b"\"a\" \x0b \"b", 0, quoted("unterminated quote")),
        ("\"é\" é\"ü 'ß'".as_bytes(), 0, Ok(())),
        (b"\"a\" \xff", 0, not_utf8("invalid utf-8 sequence of 1 bytes from index 4")),
        (b"\"\xc3\" b", 0, not_utf8("invalid utf-8 sequence of 1 bytes from index 1")),
        (b"abc \"d\"", 3, over(4, 3)),
        (b"ab\"cd", 5, over(6, 5)),
        (b"ab\"cd", 6, Ok(())),
        (b"\"ab", 3, over(4, 3)),
        (b"\"ab", 4, quoted("unterminated quote")),
        (b"abcdefgh \"i\" j\"k", 8, over(9, 8)),
        (b"abcdefg \"i\" j\"k", 8, Ok(())),
        (b"abcdefg \"i\" j\"k \"", 8, quoted("unterminated quote")),
    ];
    for (line, max, expected) in cases {
        let limits = match max {
            0 => DecodeLimits::default(),
            &max => DecodeLimits::default().with_max_string_bytes(max),
        };
        let got = heidl_wire::TextDecoder::with_limits(line, limits).map(|_| ());
        assert_eq!(&got, expected, "{:?} under {max}", String::from_utf8_lossy(line));
        let owned = TextProtocol.decoder_with_limits(line.to_vec(), &limits).map(|_| ());
        assert_eq!(&owned, expected, "{:?} owned", String::from_utf8_lossy(line));
    }
}
