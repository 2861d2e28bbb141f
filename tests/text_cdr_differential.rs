//! Text-vs-CDR differential over a *generated* stub and skeleton: the same
//! seeded calls go through a live ORB once per wire protocol, and the
//! servant must observe identical arguments and the caller identical
//! replies. The protocols share nothing below the `Encoder`/`Decoder`
//! traits, so a bug in either runtime path — the text scanner, its
//! escapes, its number formatting; CDR alignment or length prefixes —
//! shows up as a disagreement (or as a mismatch with what was sent).
//!
//! `idl/catalog.idl` is compiled by `build.rs`; its one operation takes a
//! struct, a string, a `sequence<long>` and a `sequence<double>` and
//! returns a `sequence<double>`.

use heidl::rmi::{DispatchKind, Orb, RemoteObject, RmiResult};
use heidl::wire::{CdrProtocol, Protocol, TextProtocol};
use std::sync::{Arc, Mutex};

#[allow(non_upper_case_globals, dead_code, unused_imports, clippy::all)]
mod catalog {
    include!(concat!(env!("OUT_DIR"), "/catalog.rs"));
}
use catalog::{Clip, MixerServant, MixerSkel, MixerStub, Mixer_REPO_ID, Status};

/// One call's arguments, as sent and as the servant saw them.
#[derive(Debug, Clone)]
struct Args {
    head: Clip,
    titles: String,
    frames: Vec<i32>,
    rates: Vec<f64>,
}

/// Floats compare by bits, so `-0.0` is not `0.0` and a NaN equals itself.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() }).collect()
}

impl Args {
    fn key(&self) -> (String, i32, Status, Vec<u64>, &str, &[i32]) {
        let mut floats = bits(&self.rates);
        floats.push(bits(&[self.head.rate])[0]);
        let head = &self.head;
        (head.title.clone(), head.frames, head.status, floats, &self.titles, &self.frames)
    }
}

fn mixed(args: &Args) -> Vec<f64> {
    let mut out: Vec<f64> =
        args.rates.iter().zip(&args.frames).map(|(r, f)| r * f64::from(*f)).collect();
    out.push(args.head.rate);
    out
}

/// Records what arrived, answers `mixed`.
#[derive(Default)]
struct Recorder {
    seen: Mutex<Vec<Args>>,
}

impl RemoteObject for Recorder {
    fn type_id(&self) -> &str {
        Mixer_REPO_ID
    }
}

impl MixerServant for Recorder {
    fn mix(
        &self,
        head: Clip,
        titles: String,
        frames: Vec<i32>,
        rates: Vec<f64>,
    ) -> RmiResult<Vec<f64>> {
        let args = Args { head, titles, frames, rates };
        let reply = mixed(&args);
        self.seen.lock().unwrap().push(args);
        Ok(reply)
    }
}

/// xorshift64*: the seed is the only source of variation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// Characters the text protocol must escape or carry through untouched:
/// both quotes, the escape character, every escaped control character,
/// the suffix marker's `~`, the structure markers, whitespace the old
/// tokenizer tripped over, and multi-byte UTF-8.
const CHARS: &str = "aZ7 \"'\\\n\r\t\u{b}\u{a0}~{}é漢✓\u{1f600}";

const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.5,
    -0.1,
    1e16,
    1e-7,
    123_456.789,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    f64::EPSILON,
    5e-324, // the smallest subnormal
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

const LONGS: &[i32] = &[0, 1, -1, 7, i32::MAX, i32::MIN, 1 << 20];

fn text(rng: &mut Rng, max: u64) -> String {
    let chars: Vec<char> = CHARS.chars().collect();
    (0..rng.next() % (max + 1)).map(|_| rng.pick(&chars)).collect()
}

fn double(rng: &mut Rng) -> f64 {
    match rng.next() % 3 {
        0 => rng.pick(FLOATS),
        // Any finite bit pattern: seventeen significant digits on the wire.
        1 => Some(f64::from_bits(rng.next())).filter(|v| v.is_finite()).unwrap_or(0.25),
        _ => (rng.next() % 48_000) as f64 / 1000.0,
    }
}

fn args(rng: &mut Rng) -> Args {
    let n = (rng.next() % 40) as usize;
    let head = Clip {
        title: text(rng, 24),
        frames: rng.pick(LONGS),
        status: rng.pick(&[Status::Stopped, Status::Playing, Status::Paused]),
        rate: double(rng),
    };
    let long = |rng: &mut Rng| match rng.next() % 2 {
        0 => rng.pick(LONGS),
        _ => rng.next() as i32,
    };
    Args {
        head,
        titles: text(rng, 200),
        frames: (0..n).map(|_| long(rng)).collect(),
        rates: (0..n).map(|_| double(rng)).collect(),
    }
}

/// Runs `calls` through a generated stub against a live server speaking
/// `protocol`; returns what the servant saw and what the caller got back.
fn drive(protocol: Arc<dyn Protocol>, calls: &[Args]) -> (Vec<Args>, Vec<Vec<f64>>) {
    let server = Orb::with_protocol(Arc::clone(&protocol));
    server.serve("127.0.0.1:0").unwrap();
    let recorder = Arc::new(Recorder::default());
    let skeleton = MixerSkel::new(recorder.clone(), server.clone(), DispatchKind::Hash);
    let objref = server.export(skeleton).unwrap();

    let client = Orb::with_protocol(protocol);
    let stub = MixerStub::new(client.clone(), objref);
    let replies = calls
        .iter()
        .map(|c| {
            stub.mix(c.head.clone(), c.titles.clone(), c.frames.clone(), c.rates.clone()).unwrap()
        })
        .collect();
    client.shutdown();
    server.shutdown();
    let seen = std::mem::take(&mut *recorder.seen.lock().unwrap());
    (seen, replies)
}

#[test]
fn generated_stub_agrees_over_text_and_cdr() {
    for seed in [1, 2, 0x5EED] {
        let mut rng = Rng(seed);
        let calls: Vec<Args> = (0..24).map(|_| args(&mut rng)).collect();
        let (text_seen, text_replies) = drive(Arc::new(TextProtocol), &calls);
        let (cdr_seen, cdr_replies) = drive(Arc::new(CdrProtocol), &calls);
        assert_eq!(text_seen.len(), calls.len());
        assert_eq!(cdr_seen.len(), calls.len());
        for (i, sent) in calls.iter().enumerate() {
            // Each protocol delivered what was sent, hence the same thing.
            assert_eq!(text_seen[i].key(), sent.key(), "seed {seed} call {i}: text arguments");
            assert_eq!(cdr_seen[i].key(), sent.key(), "seed {seed} call {i}: CDR arguments");
            let expected = bits(&mixed(sent));
            assert_eq!(bits(&text_replies[i]), expected, "seed {seed} call {i}: text reply");
            assert_eq!(bits(&cdr_replies[i]), expected, "seed {seed} call {i}: CDR reply");
        }
    }
}
