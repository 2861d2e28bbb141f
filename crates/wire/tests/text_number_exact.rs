//! The text codec's `f64` conversions held to std, value by value.
//!
//! [`TextEncoder::put_double`] must write exactly the bytes of
//! `format!("{v:?}")`, and [`TextDecoder::get_double`] must return the
//! bits `str::parse::<f64>` returns, or the `WireError` that parsing with
//! std gives (`Malformed`, worded with std's message). Both have an exact
//! fixed-point fast path for plain decimals of at most 15 significant
//! digits in front of std, and these sweeps are what holds those paths to
//! it: every short decimal with its neighbours, the ends of the fast
//! paths' range, `struct_text`'s own values, random bit patterns, and
//! decimal strings std never prints (leading and trailing zeros, 16 and
//! more digits, points at either end).
//!
//! Each sweep runs a slice of a few seconds by default. The full sweeps
//! are `#[ignore]`d; run them in release:
//!
//! ```text
//! cargo test --release -p heidl-wire --test text_number_exact -- --include-ignored
//! ```

use heidl_wire::{Decoder, Encoder, TextDecoder, TextEncoder, WireError, WireResult};

/// Values per encoded line: one encoder and one decoder per batch.
const BATCH: usize = 4096;

/// What `get_double` must return for a bare token: the bits `str::parse`
/// returns, or its error as the decoder words it.
fn std_bits(token: &str) -> WireResult<u64> {
    token
        .parse::<f64>()
        .map(f64::to_bits)
        .map_err(|e| WireError::Malformed { what: "double", detail: format!("`{token}`: {e}") })
}

/// Decodes `tokens` from one line and holds each to [`std_bits`].
fn check_tokens(tokens: &[String]) {
    let line = tokens.join(" ");
    let mut dec = TextDecoder::new(line.as_bytes()).unwrap();
    for token in tokens {
        assert_eq!(dec.get_double().map(f64::to_bits), std_bits(token), "get_double on `{token}`");
    }
    assert!(dec.at_end(), "the cursor stopped short of the line's end");
}

/// Encodes `values` on one line and holds each to `{:?}`, then decodes
/// the line (see [`check_tokens`]).
fn check_batch(values: &[f64]) {
    let mut enc = TextEncoder::new();
    for &v in values {
        enc.put_double(v);
    }
    let line = String::from_utf8(enc.finish()).unwrap();
    let want: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    for ((v, got), want) in values.iter().zip(line.split(' ')).zip(&want) {
        assert_eq!(got, want, "put_double({v:?}), bits {:#018x}", v.to_bits());
    }
    assert_eq!(line.split(' ').count(), values.len(), "one token per value");
    check_tokens(&want);
}

/// [`check_batch`] on each of `values`, its neighbours one ulp away and
/// the negations of all three.
fn check_values(values: impl IntoIterator<Item = f64>) -> u64 {
    let (mut batch, mut checked) = (Vec::with_capacity(BATCH + 6), 0);
    for v in values {
        for v in [v, v.next_down(), v.next_up()] {
            batch.extend([v, -v]);
        }
        if batch.len() >= BATCH {
            checked += batch.len() as u64;
            check_batch(&batch);
            batch.clear();
        }
    }
    check_batch(&batch);
    checked + batch.len() as u64
}

/// `10^d`, as std parses it: exact for `d <= 22`.
fn pow10(d: u32) -> f64 {
    format!("1e{d}").parse().unwrap()
}

/// A seeded SplitMix64 stream: the sweeps are the same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every `k / 10^d` for `k <= 10^6` in steps of `stride`, `d <= 7`.
fn short_decimals(stride: usize) -> u64 {
    let scales: Vec<f64> = (0..=7).map(pow10).collect();
    let ks = (0..=1_000_000u32).step_by(stride);
    check_values(ks.flat_map(|k| scales.iter().map(move |&p| f64::from(k) / p)))
}

/// Where the fast paths' range ends and where exactness ends: `1e-4`
/// (below it `{:?}` writes an exponent), `1e15` (the most digits taken),
/// `1e16` (above it std writes an exponent) and `2^53`, each with its
/// 32 nearest neighbours.
#[test]
fn range_ends_agree_with_std() {
    for edge in [1e-4, 1e15, 1e16, 9_007_199_254_740_992.0f64] {
        let (mut below, mut above) = (edge, edge);
        let mut near = vec![edge];
        for _ in 0..16 {
            (below, above) = (below.next_down(), above.next_up());
            near.extend([below, above]);
        }
        check_values(near);
    }
}

/// The rates `struct_text` sends (`k / 1000` for `1 <= k <= 48 000`)
/// in steps of `stride`, and what its servant answers for each: the rate
/// times `per_rate` random frame counts below `2^20`, plus a status of
/// 0, 1 or 2.
fn struct_text_values(stride: usize, per_rate: usize) -> u64 {
    let mut rng = Rng(0x5eed_0001);
    let mut values = Vec::new();
    for k in (1..=48_000u32).step_by(stride) {
        let rate = f64::from(k) / 1000.0;
        values.push(rate);
        for _ in 0..per_rate {
            let frames = rng.below(1 << 20) as f64;
            values.extend((0..3).map(|status| rate * frames + f64::from(status)));
        }
    }
    check_values(values)
}

/// `n` random bit patterns, and `n` more whose magnitude lies in the
/// fast path's range with a random mantissa (mostly 17 digits, which the
/// formatter tries and leaves to std).
fn random_bits(n: usize) -> u64 {
    let mut rng = Rng(0x5eed_0002);
    let mut values = Vec::with_capacity(2 * n);
    for _ in 0..n {
        values.push(f64::from_bits(rng.next()));
        // Biased exponents 1009..=1072 span 2^-14 ..= 2^49.
        let exponent = 1009 + rng.below(64);
        values.push(f64::from_bits((exponent << 52) | (rng.next() >> 12)));
    }
    check_values(values)
}

/// `n` random decimal tokens std never writes, parsed only: an optional
/// `-`, 1 to 20 digits (leading and trailing zeros common) and a point
/// anywhere, or at neither end, or none.
fn decimal_strings(n: usize) -> u64 {
    let mut rng = Rng(0x5eed_0003);
    let mut tokens = Vec::with_capacity(BATCH);
    let mut checked = 0;
    for _ in 0..n {
        let len = 1 + rng.below(20) as usize;
        let mut digits: Vec<u8> = (0..len)
            .map(|_| match rng.below(4) {
                0 => b'0',
                _ => b'0' + rng.below(10) as u8,
            })
            .collect();
        let point = rng.below(len as u64 + 2) as usize;
        if point <= len {
            digits.insert(point, b'.');
        }
        let sign = if rng.below(2) == 0 { "-" } else { "" };
        tokens.push(format!("{sign}{}", String::from_utf8(digits).unwrap()));
        if tokens.len() == BATCH {
            check_tokens(&tokens);
            checked += tokens.len() as u64;
            tokens.clear();
        }
    }
    check_tokens(&tokens);
    checked + tokens.len() as u64
}

#[test]
fn short_decimals_agree_with_std() {
    assert!(short_decimals(199) > 240_000);
}

#[test]
fn struct_text_values_agree_with_std() {
    assert!(struct_text_values(7, 2) > 280_000);
}

#[test]
fn random_bits_agree_with_std() {
    assert_eq!(random_bits(30_000), 360_000);
}

#[test]
fn decimal_strings_parse_as_std_does() {
    assert_eq!(decimal_strings(200_000), 200_000);
}

/// Every `±k/10^d` for `k <= 10^6`, `d <= 7`, with their neighbours:
/// 48 million values.
#[test]
#[ignore = "the full sweep: minutes in a debug build, run it with --release"]
fn full_short_decimals_agree_with_std() {
    assert_eq!(short_decimals(1), 48_000_048);
}

#[test]
#[ignore = "the full sweep: minutes in a debug build, run it with --release"]
fn full_struct_text_values_agree_with_std() {
    assert!(struct_text_values(1, 16) > 14_000_000);
}

#[test]
#[ignore = "the full sweep: minutes in a debug build, run it with --release"]
fn full_random_bits_agree_with_std() {
    assert_eq!(random_bits(2_000_000), 24_000_000);
}

#[test]
#[ignore = "the full sweep: minutes in a debug build, run it with --release"]
fn full_decimal_strings_parse_as_std_does() {
    assert_eq!(decimal_strings(4_000_000), 4_000_000);
}
