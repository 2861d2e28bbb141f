//! The bulk sequence methods against the element loop they replace, on
//! both codecs and for all eleven primitive element types.
//!
//! `put_<t>_seq(v)` must write exactly the bytes of `put_len` plus one
//! `put_<t>` per element — an empty sequence included, which gets no
//! alignment pad — and `get_<t>_seq` must read back what the element loop
//! reads, leaving the cursor in the same place (checked by decoding a
//! trailer after the sequence). Each sequence starts after zero to seven
//! octets, so CDR's single pad before the run (and its absence for an
//! empty sequence, which every case also checks) is exercised at every
//! offset. A run shorter than its length prefix fails with `UnexpectedEnd` both
//! ways; a bad `boolean` byte or `char` scalar fails with the same error
//! both ways. On text, one hostile token among good elements reads or
//! fails identically both ways, so a text sequence getter that leaves the
//! trait's element loop must keep that loop's limits and errors.

use heidl_wire::{
    CdrEncoder, CdrProtocol, Decoder, Encoder, Protocol, TextProtocol, WireError, WireResult,
};
use proptest::prelude::*;

fn protocols() -> [Box<dyn Protocol>; 2] {
    [Box::new(TextProtocol), Box::new(CdrProtocol)]
}

/// Written after every sequence: reading it back proves both decode paths
/// stopped at the same offset.
const TRAILER: f64 = -1234.5;

/// A message: `lead` octets, `body`, then (if asked) the trailer.
fn message(
    p: &dyn Protocol,
    lead: usize,
    trailer: bool,
    body: impl FnOnce(&mut dyn Encoder),
) -> Vec<u8> {
    let mut enc = p.encoder();
    for _ in 0..lead {
        enc.put_octet(0xA5);
    }
    body(&mut *enc);
    if trailer {
        enc.put_octet(0x5A);
        enc.put_double(TRAILER);
    }
    enc.finish()
}

/// Decodes a [`message`] with `body` and checks the trailer after it.
fn read<T>(
    p: &dyn Protocol,
    bytes: Vec<u8>,
    lead: usize,
    trailer: bool,
    body: impl FnOnce(&mut dyn Decoder) -> WireResult<T>,
) -> WireResult<T> {
    let mut dec = p.decoder(bytes)?;
    for _ in 0..lead {
        assert_eq!(dec.get_octet()?, 0xA5);
    }
    let v = body(&mut *dec)?;
    if trailer {
        assert_eq!(dec.get_octet()?, 0x5A, "{}: cursor after the sequence", p.name());
        assert_eq!(dec.get_double()?, TRAILER, "{}: cursor after the sequence", p.name());
    }
    assert!(dec.at_end(), "{}: bytes left after the message", p.name());
    Ok(v)
}

/// Floats compare by bits, so `-0.0` is not `0.0`; every NaN is one NaN
/// because text carries no payload.
fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn same<T: Clone>(v: &[T]) -> Vec<T> {
    v.to_vec()
}

/// Any bit pattern, with NaN, the zeros, subnormals and infinities made
/// common rather than left to chance.
fn any_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0..8u8).prop_map(|(b, pick)| match pick {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::from_bits(b & 0x800F_FFFF_FFFF_FFFF), // subnormal (or a zero)
        4 => f64::INFINITY,
        _ => f64::from_bits(b),
    })
}

fn any_f32() -> impl Strategy<Value = f32> {
    (any::<u32>(), 0..8u8).prop_map(|(b, pick)| match pick {
        0 => f32::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f32::from_bits(b & 0x807F_FFFF), // subnormal (or a zero)
        4 => f32::NEG_INFINITY,
        _ => f32::from_bits(b),
    })
}

macro_rules! bulk_matches_element_loop {
    ($($test:ident: $put_seq:ident, $put:ident, $get_seq:ident, $get:ident,
        $strategy:expr, $key:expr;)*) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            $(
            #[test]
            fn $test(
                v in proptest::collection::vec($strategy, 1..48),
                lead in 0..8usize,
                short in 1..4usize,
                cut in any::<u64>(),
            ) {
                let key = $key;
                for v in [v, Vec::new()] {
                    for p in protocols() {
                        let p = p.as_ref();
                        let name = p.name();
                        let each_loop = |e: &mut dyn Encoder| {
                            e.put_len(v.len() as u32);
                            for &x in &v {
                                e.$put(x);
                            }
                        };
                        let bulk = message(p, lead, true, |e| e.$put_seq(&v));
                        let each = message(p, lead, true, each_loop);
                        prop_assert_eq!(&bulk, &each, "{}: bytes", name);

                        let by_bulk = read(p, bulk.clone(), lead, true, |d| d.$get_seq());
                        let by_each = read(p, bulk, lead, true, |d| {
                            (0..d.get_len()?).map(|_| d.$get()).collect::<WireResult<Vec<_>>>()
                        });
                        prop_assert_eq!(key(&by_bulk.unwrap()), key(&v), "{}: bulk", name);
                        prop_assert_eq!(key(&by_each.unwrap()), key(&v), "{}: loop", name);

                        // A run shorter than its length prefix, on element
                        // boundaries (a cut inside a text token could
                        // still be a valid token).
                        if v.is_empty() {
                            continue;
                        }
                        let kept = v.len().saturating_sub(short);
                        let body = message(p, lead, false, |e| {
                            e.put_len(v.len() as u32);
                            for &x in &v[..kept] {
                                e.$put(x);
                            }
                        });
                        let by_bulk = read(p, body.clone(), lead, false, |d| d.$get_seq());
                        let by_each = read(p, body, lead, false, |d| {
                            (0..d.get_len()?).map(|_| d.$get()).collect::<WireResult<Vec<_>>>()
                        });
                        let (by_bulk, by_each) = (by_bulk.unwrap_err(), by_each.unwrap_err());
                        let short_end = matches!(by_bulk, WireError::UnexpectedEnd { .. });
                        prop_assert!(short_end, "{}: {:?}", name, by_bulk);
                        prop_assert_eq!(by_bulk, by_each, "{}: short run", name);
                    }

                    // CDR also at any byte inside the sequence: length
                    // prefix, pad or elements.
                    let p = CdrProtocol;
                    let full = message(&p, lead, false, |e| e.$put_seq(&v));
                    let at = lead + (cut % (full.len() - lead) as u64) as usize;
                    let cut = full[..at].to_vec();
                    let by_bulk = read(&p, cut.clone(), lead, false, |d| d.$get_seq()).unwrap_err();
                    let by_each = read(&p, cut, lead, false, |d| {
                        (0..d.get_len()?).map(|_| d.$get()).collect::<WireResult<Vec<_>>>()
                    })
                    .unwrap_err();
                    let cut_end = matches!(by_bulk, WireError::UnexpectedEnd { .. });
                    prop_assert!(cut_end, "CDR cut at {}: {:?}", at, by_bulk);
                    prop_assert_eq!(by_bulk, by_each, "CDR cut at {}", at);
                }
            }
            )*
        }
    };
}

bulk_matches_element_loop! {
    bools: put_bool_seq, put_bool, get_bool_seq, get_bool, any::<bool>(), same;
    octets: put_octet_seq, put_octet, get_octet_seq, get_octet, any::<u8>(), same;
    chars: put_char_seq, put_char, get_char_seq, get_char, any::<char>(), same;
    shorts: put_short_seq, put_short, get_short_seq, get_short, any::<i16>(), same;
    ushorts: put_ushort_seq, put_ushort, get_ushort_seq, get_ushort, any::<u16>(), same;
    longs: put_long_seq, put_long, get_long_seq, get_long, any::<i32>(), same;
    ulongs: put_ulong_seq, put_ulong, get_ulong_seq, get_ulong, any::<u32>(), same;
    longlongs: put_longlong_seq, put_longlong, get_longlong_seq, get_longlong, any::<i64>(), same;
    ulonglongs: put_ulonglong_seq, put_ulonglong, get_ulonglong_seq, get_ulonglong,
        any::<u64>(), same;
    floats: put_float_seq, put_float, get_float_seq, get_float, any_f32(), bits32;
    doubles: put_double_seq, put_double, get_double_seq, get_double, any_f64(), bits64;
}

/// Decodes `body` as a bool (or char) sequence both ways; both must fail
/// with the same `Malformed` error.
fn same_malformed<T: std::fmt::Debug>(
    p: &dyn Protocol,
    body: Vec<u8>,
    bulk: fn(&mut dyn Decoder) -> WireResult<Vec<T>>,
    each: fn(&mut dyn Decoder) -> WireResult<T>,
) -> Result<(), TestCaseError> {
    let by_bulk = read(p, body.clone(), 0, false, bulk).unwrap_err();
    let by_each = read(p, body, 0, false, |d| {
        (0..d.get_len()?).map(|_| each(d)).collect::<WireResult<Vec<T>>>()
    })
    .unwrap_err();
    prop_assert!(matches!(by_bulk, WireError::Malformed { .. }), "{}: {:?}", p.name(), by_bulk);
    prop_assert_eq!(by_bulk, by_each, "{}", p.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One byte that is neither 0 nor 1 (CDR) or one token that is
    /// neither `T` nor `F` (text) among good booleans.
    #[test]
    fn bad_bool_fails_alike(
        v in proptest::collection::vec(any::<bool>(), 1..24),
        at in any::<u64>(),
        byte in 2..=255u8,
        token in 0..3usize,
    ) {
        let at = (at % v.len() as u64) as usize;
        let mut enc = CdrEncoder::new();
        enc.put_len(v.len() as u32);
        for (i, &b) in v.iter().enumerate() {
            enc.put_octet(if i == at { byte } else { u8::from(b) });
        }
        same_malformed(&CdrProtocol, enc.finish(), |d| d.get_bool_seq(), |d| d.get_bool())?;

        let bad = ["X", "1", "\"T\""][token];
        let token = |(i, &b): (usize, &bool)| match (i == at, b) {
            (true, _) => bad,
            (false, true) => "T",
            (false, false) => "F",
        };
        let tokens: Vec<&str> = v.iter().enumerate().map(token).collect();
        let text = format!("{} {}", v.len(), tokens.join(" "));
        same_malformed(&TextProtocol, text.into_bytes(), |d| d.get_bool_seq(), |d| d.get_bool())?;
    }

    /// One surrogate or out-of-range scalar (CDR) or one quoted token that
    /// is not exactly one character (text) among good chars.
    #[test]
    fn bad_char_fails_alike(
        v in proptest::collection::vec(any::<char>(), 1..24),
        at in any::<u64>(),
        scalar in prop_oneof![0xD800..=0xDFFFu32, 0x11_0000..=u32::MAX],
        token in 0..3usize,
    ) {
        let at = (at % v.len() as u64) as usize;
        let mut enc = CdrEncoder::new();
        enc.put_len(v.len() as u32);
        for (i, &c) in v.iter().enumerate() {
            enc.put_ulong(if i == at { scalar } else { c as u32 });
        }
        same_malformed(&CdrProtocol, enc.finish(), |d| d.get_char_seq(), |d| d.get_char())?;

        let mut enc = TextProtocol.encoder();
        enc.put_len(v.len() as u32);
        let good = String::from_utf8(enc.finish()).unwrap();
        let bad = ["''", "'ab'", "\"a\""][token];
        let mut text = good;
        for (i, &c) in v.iter().enumerate() {
            text.push(' ');
            if i == at {
                text.push_str(bad);
            } else {
                let mut one = TextProtocol.encoder();
                one.put_char(c);
                text.push_str(std::str::from_utf8(&one.finish()).unwrap());
            }
        }
        same_malformed(&TextProtocol, text.into_bytes(), |d| d.get_char_seq(), |d| d.get_char())?;
    }
}

/// Tokens an element parser must refuse, or accept exactly as
/// `str::parse` does: a sign it may or may not take, an unsigned `-0`, a
/// lone `-`, an overflow, the wrong token class, exponent and hex forms,
/// and tokens over the 32-byte string bound the decoder runs under. The
/// decimal ones are those the `f64` fast path leaves to `str::parse`: a
/// point at either end, two points, signs it does not take, exponents,
/// 16 and 17 digits, and words; `-0.0` and `007.50` it takes.
const HOSTILE: [&str; 31] = [
    "+5",
    "-0",
    "-",
    "99999999999999999999",
    "\"7\"",
    "'7'",
    "1e400",
    "0x10",
    "T",
    "{",
    "1234567890123456789012345678901234567890",
    "\"a token quoted past the string bound\"",
    "1.",
    ".5",
    "-.5",
    ".",
    "-.",
    "1.2.3",
    "--1",
    "+1.5",
    "1e5",
    "1E-3",
    "986.5452293525111",
    "7764096.3149999995",
    "0x1p3",
    "inf",
    "NaN",
    "-0.0",
    "007.50",
    "\"1.5\"",
    "11111111111111111111111111111111",
];

/// A sequence's text with element `at` replaced by `bad`, then the
/// trailer: `<n> <elements...> -1234.5`.
fn hostile_line(
    n: usize,
    at: usize,
    bad: &str,
    mut element: impl FnMut(usize) -> String,
) -> String {
    let tokens: Vec<String> =
        (0..n).map(|i| if i == at { bad.into() } else { element(i) }).collect();
    format!("{n} {} {TRAILER:?}", tokens.join(" "))
}

/// Reads a [`hostile_line`] lazily (so the getters, not the pre-scan,
/// meet each token) and then the trailer.
fn read_hostile<T>(
    line: &str,
    body: impl FnOnce(&mut dyn Decoder) -> WireResult<T>,
) -> WireResult<T> {
    let limits = heidl_wire::DecodeLimits::default().with_max_string_bytes(32);
    heidl_wire::peek(&TextProtocol, line.as_bytes(), &limits, |dec| {
        let v = body(dec)?;
        assert_eq!(dec.get_double()?, TRAILER, "cursor after the sequence");
        assert!(dec.at_end());
        Ok(v)
    })?
}

macro_rules! text_bulk_fails_like_the_loop {
    ($($test:ident: $put:ident, $get_seq:ident, $get:ident, $strategy:expr, $key:expr;)*) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            $(
            /// Text only: one element of a valid run replaced by a hostile
            /// token. The bulk getter and the element loop return the same
            /// values, or the identical `WireError`.
            #[test]
            fn $test(
                v in proptest::collection::vec($strategy, 1..24),
                at in any::<u64>(),
                bad in 0..HOSTILE.len(),
            ) {
                let at = (at % v.len() as u64) as usize;
                let line = hostile_line(v.len(), at, HOSTILE[bad], |i| {
                    let mut one = TextProtocol.encoder();
                    one.$put(v[i]);
                    String::from_utf8(one.finish()).unwrap()
                });
                let by_bulk = read_hostile(&line, |d| d.$get_seq()).map(|v| $key(&v));
                let by_each = read_hostile(&line, |d| {
                    (0..d.get_len()?).map(|_| d.$get()).collect::<WireResult<Vec<_>>>()
                })
                .map(|v| $key(&v));
                prop_assert_eq!(by_bulk, by_each, "{}", line);
            }
            )*
        }
    };
}

text_bulk_fails_like_the_loop! {
    text_hostile_bools: put_bool, get_bool_seq, get_bool, any::<bool>(), same;
    text_hostile_octets: put_octet, get_octet_seq, get_octet, any::<u8>(), same;
    text_hostile_chars: put_char, get_char_seq, get_char, any::<char>(), same;
    text_hostile_shorts: put_short, get_short_seq, get_short, any::<i16>(), same;
    text_hostile_ushorts: put_ushort, get_ushort_seq, get_ushort, any::<u16>(), same;
    text_hostile_longs: put_long, get_long_seq, get_long, any::<i32>(), same;
    text_hostile_ulongs: put_ulong, get_ulong_seq, get_ulong, any::<u32>(), same;
    text_hostile_longlongs: put_longlong, get_longlong_seq, get_longlong, any::<i64>(), same;
    text_hostile_ulonglongs: put_ulonglong, get_ulonglong_seq, get_ulonglong, any::<u64>(), same;
    text_hostile_floats: put_float, get_float_seq, get_float, any_f32(), bits32;
    text_hostile_doubles: put_double, get_double_seq, get_double, any_f64(), bits64;
}
