//! Every sequence shape the rust mapping marshals, through a *generated*
//! stub and skeleton: one operation per primitive element type (a bulk
//! codec call per sequence), `sequence<string>` and `sequence<enum>`
//! (element loops), and one call mixing them after a misaligning octet.
//!
//! `idl/shapes.idl` is compiled by `build.rs`. Each operation returns its
//! argument reversed, so the reply path is checked independently of the
//! argument path; both run over a live ORB once per wire protocol.
//!
//! A hostile length prefix is also checked here, against the generated
//! skeleton directly: a request that announces the largest sequence
//! [`DecodeLimits`] allows but carries no elements must come back as an
//! error having allocated no more than a few KiB. The test binary's
//! global allocator records the largest single allocation made by the
//! thread that armed it.

use heidl::rmi::{DispatchKind, Orb, RemoteObject, RmiResult};
use heidl::wire::{CdrProtocol, DecodeLimits, Protocol, TextProtocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

#[allow(non_upper_case_globals, dead_code, unused_imports, clippy::all)]
mod shapes {
    include!(concat!(env!("OUT_DIR"), "/shapes.rs"));
}
use shapes::{Color, EchoServant, EchoSkel, EchoStub, Echo_REPO_ID};

// ---- largest-allocation probe -------------------------------------------

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

/// The system allocator, noting each request's size while armed.
struct Probe;

// SAFETY: every call forwards to `System` with the caller's arguments;
// `note` only touches const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(Cell::get))
}

// ---- servant ---------------------------------------------------------------

struct Reverser;

impl RemoteObject for Reverser {
    fn type_id(&self) -> &str {
        Echo_REPO_ID
    }
}

fn rev<T>(mut v: Vec<T>) -> RmiResult<Vec<T>> {
    v.reverse();
    Ok(v)
}

impl EchoServant for Reverser {
    fn bools(&self, v: Vec<bool>) -> RmiResult<Vec<bool>> {
        rev(v)
    }
    fn octets(&self, v: Vec<u8>) -> RmiResult<Vec<u8>> {
        rev(v)
    }
    fn chars(&self, v: Vec<char>) -> RmiResult<Vec<char>> {
        rev(v)
    }
    fn shorts(&self, v: Vec<i16>) -> RmiResult<Vec<i16>> {
        rev(v)
    }
    fn ushorts(&self, v: Vec<u16>) -> RmiResult<Vec<u16>> {
        rev(v)
    }
    fn longs(&self, v: Vec<i32>) -> RmiResult<Vec<i32>> {
        rev(v)
    }
    fn ulongs(&self, v: Vec<u32>) -> RmiResult<Vec<u32>> {
        rev(v)
    }
    fn longlongs(&self, v: Vec<i64>) -> RmiResult<Vec<i64>> {
        rev(v)
    }
    fn ulonglongs(&self, v: Vec<u64>) -> RmiResult<Vec<u64>> {
        rev(v)
    }
    fn floats(&self, v: Vec<f32>) -> RmiResult<Vec<f32>> {
        rev(v)
    }
    fn doubles(&self, v: Vec<f64>) -> RmiResult<Vec<f64>> {
        rev(v)
    }
    fn strings(&self, v: Vec<String>) -> RmiResult<Vec<String>> {
        rev(v)
    }
    fn colors(&self, v: Vec<Color>) -> RmiResult<Vec<Color>> {
        rev(v)
    }
    fn mixed(
        &self,
        tag: u8,
        v: Vec<f64>,
        names: Vec<String>,
        colors: Vec<Color>,
    ) -> RmiResult<Vec<f64>> {
        Ok(mixed(tag, &v, &names, &colors))
    }
}

fn mixed(tag: u8, v: &[f64], names: &[String], colors: &[Color]) -> Vec<f64> {
    let mut out = vec![f64::from(tag)];
    out.extend(v.iter().rev());
    out.extend(names.iter().map(|n| n.chars().count() as f64));
    out.extend(colors.iter().map(|c| f64::from(c.to_long())));
    out
}

// ---- values ------------------------------------------------------------------

/// Floats compare by bits, so `-0.0` is not `0.0` and a NaN equals itself.
fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// Lengths every shape is sent at: empty, one, a few, and long enough to
/// span several receive chunks.
const LENGTHS: &[usize] = &[0, 1, 3, 700, 5000];

/// `n` values cycling through `edges`, then mixed with the index so long
/// sequences are not periodic.
fn cycle<T: Copy>(edges: &[T], n: usize, vary: impl Fn(T, usize) -> T) -> Vec<T> {
    (0..n).map(|i| vary(edges[i % edges.len()], i / edges.len())).collect()
}

const DOUBLES: &[f64] = &[
    0.0,
    -0.0,
    1.5,
    -0.1,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    5e-324, // the smallest subnormal
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

const FLOATS: &[f32] = &[
    0.0,
    -0.0,
    2.5,
    -0.3,
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    1e-45, // the smallest subnormal
    f32::INFINITY,
    f32::NAN,
];

/// Characters the text protocol quotes or escapes, and CDR's widest.
const CHARS: &[char] = &['a', '\0', '\'', '\\', ' ', '\n', '\r', '~', '{', 'é', '漢', '\u{10FFFF}'];

const STRINGS: &[&str] = &["", "plain", "two words", "\"quoted\" \\ \n\r", "~ctx {}", "漢字✓"];

const COLORS: &[Color] = &[Color::Red, Color::Green, Color::Blue];

/// Calls every operation at every length against a server speaking
/// `protocol`, checking each reply against the servant's rule.
fn round_trip_all(protocol: Arc<dyn Protocol>) {
    let server = Orb::with_protocol(Arc::clone(&protocol));
    server.serve("127.0.0.1:0").unwrap();
    let skeleton = EchoSkel::new(Arc::new(Reverser), server.clone(), DispatchKind::Hash);
    let objref = server.export(skeleton).unwrap();
    let client = Orb::with_protocol(Arc::clone(&protocol));
    let stub = EchoStub::new(client.clone(), objref);
    let name = protocol.name();

    macro_rules! check {
        ($op:ident, $v:expr) => {{
            let v = $v;
            let mut want = v.clone();
            want.reverse();
            let got = stub.$op(v).unwrap();
            assert_eq!(got, want, "{name}: {} at length {}", stringify!($op), want.len());
        }};
    }

    for &n in LENGTHS {
        check!(bools, cycle(&[true, false, false], n, |b, _| b));
        check!(octets, cycle(&[0u8, 1, 0x7F, 0x80, 0xFF], n, |x, k| x.wrapping_add(k as u8)));
        check!(chars, cycle(CHARS, n, |c, _| c));
        check!(shorts, cycle(&[0i16, -1, i16::MIN, i16::MAX], n, |x, k| x ^ k as i16));
        check!(ushorts, cycle(&[0u16, 1, u16::MAX], n, |x, k| x ^ k as u16));
        check!(longs, cycle(&[0i32, -7, i32::MIN, i32::MAX], n, |x, k| x ^ k as i32));
        check!(ulongs, cycle(&[0u32, 1, u32::MAX], n, |x, k| x ^ k as u32));
        check!(longlongs, cycle(&[0i64, -1, i64::MIN, i64::MAX], n, |x, k| x ^ k as i64));
        check!(ulonglongs, cycle(&[0u64, 1, u64::MAX], n, |x, k| x ^ k as u64));
        check!(
            strings,
            cycle(STRINGS, n, |s, _| s).iter().map(|s| s.to_string()).collect::<Vec<_>>()
        );
        check!(colors, cycle(COLORS, n, |c, _| c));

        let doubles = cycle(DOUBLES, n, |x, k| if k % 2 == 1 { -x } else { x });
        let got = stub.doubles(doubles.clone()).unwrap();
        let want: Vec<f64> = doubles.iter().rev().copied().collect();
        assert_eq!(bits64(&got), bits64(&want), "{name}: doubles at length {n}");

        let floats = cycle(FLOATS, n, |x, k| if k % 2 == 1 { -x } else { x });
        let got = stub.floats(floats.clone()).unwrap();
        let want: Vec<f32> = floats.iter().rev().copied().collect();
        assert_eq!(bits32(&got), bits32(&want), "{name}: floats at length {n}");

        let names: Vec<String> =
            cycle(STRINGS, n % 7, |s, _| s).iter().map(|s| s.to_string()).collect();
        let colors = cycle(COLORS, n % 5, |c, _| c);
        let got = stub.mixed(0xA5, doubles.clone(), names.clone(), colors.clone()).unwrap();
        let want = mixed(0xA5, &doubles, &names, &colors);
        assert_eq!(bits64(&got), bits64(&want), "{name}: mixed at length {n}");
    }
    client.shutdown();
    server.shutdown();
}

#[test]
fn every_sequence_shape_round_trips_over_text() {
    round_trip_all(Arc::new(TextProtocol));
}

#[test]
fn every_sequence_shape_round_trips_over_cdr() {
    round_trip_all(Arc::new(CdrProtocol));
}

/// Every operation, given an argument body that is nothing but the
/// largest length prefix the default limits accept, fails — and no single
/// allocation on the way exceeds 8 KiB.
#[test]
fn hostile_sequence_length_fails_before_allocating() {
    let max = DecodeLimits::default().max_sequence_len;
    let ops = [
        "bools",
        "octets",
        "chars",
        "shorts",
        "ushorts",
        "longs",
        "ulongs",
        "longlongs",
        "ulonglongs",
        "floats",
        "doubles",
        "strings",
        "colors",
    ];
    let protocols: [Arc<dyn Protocol>; 2] = [Arc::new(TextProtocol), Arc::new(CdrProtocol)];
    let orb = Orb::new();
    let skeleton = EchoSkel::new(Arc::new(Reverser), orb.clone(), DispatchKind::Hash);
    for protocol in protocols {
        for op in ops {
            let mut enc = protocol.encoder();
            enc.put_len(max);
            let mut args = protocol.decoder(enc.finish()).unwrap();
            let mut reply = protocol.encoder();
            let (outcome, largest) =
                largest_allocation(|| skeleton.dispatch(op, &mut *args, &mut *reply));
            assert!(
                outcome.is_err(),
                "{}: {op} accepted a {max}-element sequence",
                protocol.name()
            );
            assert!(
                largest <= 8 * 1024,
                "{}: {op} allocated {largest} bytes for a length it never received",
                protocol.name()
            );
        }
    }
    orb.shutdown();
}
