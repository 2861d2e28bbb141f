//! `experiments` — regenerates every table/figure-backed experiment from
//! DESIGN.md's index and prints them as tables.
//!
//! ```text
//! cargo run -p heidl-bench --bin experiments --release [-- ID...]
//! ```
//!
//! IDs: `t1 t2 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12` (default: all). Numbers
//! are medians of quick in-process timing loops — for rigorous statistics
//! run `cargo bench`.

use heidl_bench::{method_names, module_idl, rng, NameStyle, Payload};
use heidl_rmi::{
    marshal_reference, marshal_value, unmarshal_incopy, DispatchKind, DispatchOutcome, IncopyArg,
    MethodTable, ObjectRef, Orb, RmiResult, ServerPolicy, Skeleton, SkeletonBase, TransportMode,
    ValueSerialize,
};
use heidl_wire::{CdrProtocol, Decoder, Encoder, Protocol, TextProtocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts every heap allocation in the process so the `roundtrip`
/// experiment can report allocations per call (client + server side,
/// since the loopback benchmarks are in-process).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

fn allocs_so_far() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let want = |id: &str| {
        args.iter().all(|a| a.starts_with("--")) || args.iter().any(|a| a == id || a == "all")
    };

    println!("heidl experiments — reproducing Welling & Ott (Middleware 2000)");
    println!("================================================================");
    if want("t1") {
        t1();
    }
    if want("t2") {
        t2();
    }
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11(quick);
    }
    if want("e12") {
        e12(quick);
    }
    if want("roundtrip") || want("perf") {
        roundtrip(quick);
    }
    // Opt-in only (`c10k` on the command line): holding thousands of
    // sockets is meaningless noise for the default table sweep.
    if args.iter().any(|a| a == "c10k") {
        c10k(quick);
    }
}

/// Median nanoseconds per iteration of `f`, with warmup.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..3 {
        f();
    }
    let mut samples = Vec::with_capacity(9);
    for _ in 0..9 {
        // Scale the batch so each sample is at least ~2ms.
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = start.elapsed();
            if elapsed.as_micros() >= 2000 || iters >= 1 << 22 {
                samples.push(elapsed.as_nanos() as f64 / iters as f64);
                break;
            }
            iters *= 4;
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}

// ---- T1 ------------------------------------------------------------------

fn t1() {
    println!("\n[T1] Table 1: IDL to C++ type mappings");
    println!("{:<12} {:<20} Alternate C++ Mapping", "IDL Type", "Prescribed C++ Type");
    for row in heidl_codegen::TABLE1 {
        println!("{:<12} {:<20} {}", row.idl, row.prescribed_cpp, row.alternate_cpp);
    }
}

// ---- T2 ------------------------------------------------------------------

fn t2() {
    println!("\n[T2] Table 2: CORBA-prescribed vs legacy C++ usages");
    let idl = "interface A { void f(in A r); };";
    let corba = heidl_codegen::compile("corba-cpp", idl, "a").unwrap();
    let heidi = heidl_codegen::compile("heidi-cpp", idl, "a").unwrap();
    println!("{:<28} Legacy (heidi-cpp output)", "CORBA-prescribed");
    println!("{:<28} HdA a;   (plain class)", "A_var a;");
    println!("{:<28} HdA* p;  (plain pointer)", "A_ptr p;");
    let c = corba.file("a_corba.hh").unwrap();
    let h = heidi.file("HdA.hh").unwrap();
    println!(
        "generated evidence: corba-cpp declares `A_ptr`/`A_var` typedefs: {}",
        c.contains("typedef A* A_ptr;") && c.contains("A_var;")
    );
    println!(
        "generated evidence: heidi-cpp passes `HdA*` and never mentions _ptr/_var: {}",
        h.contains("HdA* r") && !h.contains("_ptr") && !h.contains("_var")
    );
}

// ---- E1 ------------------------------------------------------------------

fn e1() {
    println!("\n[E1] dispatch strategy lookup cost (worst-case method, median/op)");
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "names", "methods", "linear", "binary", "bucket", "hash", "linear/hash"
    );
    for style in NameStyle::ALL {
        for &n in &[4usize, 16, 64, 256] {
            let names = method_names(n, style);
            let target = names.last().unwrap().clone();
            let mut row: Vec<f64> = Vec::new();
            for kind in DispatchKind::ALL {
                let table = MethodTable::new(kind, names.clone());
                row.push(time_ns(|| {
                    black_box(table.find(black_box(&target)));
                }));
            }
            println!(
                "{:<22} {:>8} {:>12} {:>12} {:>12} {:>12} {:>13.1}x",
                style.label(),
                n,
                fmt_ns(row[0]),
                fmt_ns(row[1]),
                fmt_ns(row[2]),
                fmt_ns(row[3]),
                row[0] / row[3]
            );
        }
    }
    println!("expected shape: linear grows with count and name length; hash ~flat (paper 2).");
}

// ---- E2 ------------------------------------------------------------------

fn e2() {
    println!("\n[E2] marshal+unmarshal cost and size: text vs CDR binary");
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>10}",
        "payload", "text (enc+dec)", "cdr (enc+dec)", "text B", "cdr B"
    );
    let protos: [&dyn Protocol; 2] = [&TextProtocol, &CdrProtocol];
    for payload in Payload::ALL {
        let mut times = Vec::new();
        for p in protos {
            let mut r = rng(11);
            times.push(time_ns(|| {
                let mut enc = p.encoder();
                payload.encode(enc.as_mut(), &mut r);
                let body = enc.finish();
                let mut dec = p.decoder(body).unwrap();
                payload.decode(dec.as_mut());
                black_box(());
            }));
        }
        println!(
            "{:<16} {:>14} {:>14} {:>10} {:>10}",
            payload.label(),
            fmt_ns(times[0]),
            fmt_ns(times[1]),
            payload.encoded_size(&TextProtocol, 11),
            payload.encoded_size(&CdrProtocol, 11),
        );
    }
    println!("expected shape: binary wins on numeric payloads; text is competitive on strings.");
}

// ---- shared echo scaffolding ----------------------------------------------

struct EchoSkel {
    base: SkeletonBase,
}

impl EchoSkel {
    fn shared() -> Arc<dyn Skeleton> {
        Arc::new(EchoSkel {
            base: SkeletonBase::new("IDL:Bench/Echo:1.0", DispatchKind::Hash, ["ping"], vec![]),
        })
    }
}

impl Skeleton for EchoSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let v = args.get_long()?;
                reply.put_long(v);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

fn ping(orb: &Orb, objref: &ObjectRef) {
    let mut call = orb.call(objref, "ping");
    call.args().put_long(7);
    let mut reply = orb.invoke(call).unwrap();
    black_box(reply.results().get_long().unwrap());
}

// ---- E3 ------------------------------------------------------------------

fn e3() {
    println!("\n[E3] connection caching: call latency over TCP loopback");
    let orb = Orb::new();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(EchoSkel::shared()).unwrap();

    orb.connections().set_caching(true);
    ping(&orb, &objref);
    let cached = time_ns(|| ping(&orb, &objref));
    let reused_opens = orb.connections().opened_count();

    orb.connections().set_caching(false);
    let fresh = time_ns(|| ping(&orb, &objref));
    let fresh_opens = orb.connections().opened_count() - reused_opens;
    orb.connections().set_caching(true);

    println!("{:<28} {:>12} {:>16}", "mode", "latency", "connections opened");
    println!("{:<28} {:>12} {:>16}", "cached (paper's design)", fmt_ns(cached), reused_opens);
    println!("{:<28} {:>12} {:>16}", "fresh per call", fmt_ns(fresh), fresh_opens);
    println!("speedup from caching: {:.1}x", fresh / cached);
    orb.shutdown();

    println!("\n      protocol comparison for the same call:");
    let protos: [Arc<dyn Protocol>; 2] = [Arc::new(TextProtocol), Arc::new(CdrProtocol)];
    for proto in protos {
        let name = proto.name();
        let orb = Orb::with_protocol(proto);
        orb.serve("127.0.0.1:0").unwrap();
        let objref = orb.export(EchoSkel::shared()).unwrap();
        ping(&orb, &objref);
        let t = time_ns(|| ping(&orb, &objref));
        println!("      {:<10} {:>12}", name, fmt_ns(t));
        orb.shutdown();
    }
}

// ---- E4 ------------------------------------------------------------------

fn e4() {
    println!("\n[E4] stub/skeleton caching and lazy skeleton creation");
    let orb = Orb::new();
    orb.serve("127.0.0.1:0").unwrap();
    println!("skeletons after serve():                      {}", orb.skeleton_count());
    let objref = orb.export(EchoSkel::shared()).unwrap();
    println!("skeletons after exporting one object:         {}", orb.skeleton_count());

    // Lazy export: the same identity never creates a second skeleton.
    let identity = 0xBEEF;
    let r1 = orb.export_once(identity, EchoSkel::shared).unwrap();
    let c1 = orb.skeleton_count();
    let r2 = orb.export_once(identity, EchoSkel::shared).unwrap();
    let c2 = orb.skeleton_count();
    println!(
        "after export_once twice (same identity):      {c1} then {c2} (refs equal: {})",
        r1 == r2
    );

    // Stub cache, in the paper's scenario: a stringified reference arrives
    // over the wire ("at the receiving end, the type information contained
    // in the object reference is utilized to create a stub").
    let arriving = objref.to_string();
    let uncached = time_ns(|| {
        let parsed: ObjectRef = arriving.parse().unwrap();
        black_box(Arc::new(ping_stub(&orb, &parsed)));
    });
    let cached = time_ns(|| {
        let parsed: ObjectRef = arriving.parse().unwrap();
        black_box(orb.cached_stub(&parsed, || Arc::new(ping_stub(&orb, &parsed))));
    });
    println!(
        "stub for an arriving reference: create each time {} vs cached {} ({:.1}x)",
        fmt_ns(uncached),
        fmt_ns(cached),
        uncached / cached
    );
    orb.shutdown();
}

/// A stand-in stub object for cache measurements.
struct PingStub {
    _orb: Orb,
    _objref: ObjectRef,
}

fn ping_stub(orb: &Orb, objref: &ObjectRef) -> PingStub {
    PingStub { _orb: orb.clone(), _objref: objref.clone() }
}

// ---- E5 ------------------------------------------------------------------

struct Blob {
    fields: Vec<i32>,
}

impl ValueSerialize for Blob {
    fn value_type_id(&self) -> &str {
        "IDL:Bench/Blob:1.0"
    }

    fn marshal_state(&self, enc: &mut dyn Encoder) {
        enc.put_len(self.fields.len() as u32);
        for f in &self.fields {
            enc.put_long(*f);
        }
    }
}

struct SourceSkel {
    base: SkeletonBase,
}

impl Skeleton for SourceSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let idx = args.get_long()?;
                reply.put_long(idx * 3);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

struct ConsumerSkel {
    base: SkeletonBase,
    orb: Orb,
}

impl Skeleton for ConsumerSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let fields = args.get_long()?;
                let arg = unmarshal_incopy(args, self.orb.values())?;
                let total: i64 = match arg {
                    IncopyArg::Value(v) => {
                        let blob: Vec<i32> = *v.downcast().expect("blob fields");
                        blob.iter().map(|&f| f as i64).sum()
                    }
                    IncopyArg::Reference(objref) => {
                        let mut total = 0i64;
                        for i in 0..fields {
                            let mut call = self.orb.call(&objref, "field");
                            call.args().put_long(i);
                            let mut reply = self.orb.invoke(call)?;
                            total += reply.results().get_long()? as i64;
                        }
                        total
                    }
                };
                reply.put_longlong(total);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

fn e5() {
    println!("\n[E5] incopy pass-by-value vs pass-by-reference + callbacks");
    let orb = Orb::new();
    orb.serve("127.0.0.1:0").unwrap();
    orb.values().register("IDL:Bench/Blob:1.0", |dec| {
        let n = dec.get_len()?;
        let mut fields = Vec::with_capacity(n as usize);
        for _ in 0..n {
            fields.push(dec.get_long()?);
        }
        Ok(Box::new(fields))
    });
    let consumer = orb
        .export(Arc::new(ConsumerSkel {
            base: SkeletonBase::new(
                "IDL:Bench/Consumer:1.0",
                DispatchKind::Hash,
                ["consume"],
                vec![],
            ),
            orb: orb.clone(),
        }))
        .unwrap();
    let source = orb
        .export(Arc::new(SourceSkel {
            base: SkeletonBase::new("IDL:Bench/Source:1.0", DispatchKind::Hash, ["field"], vec![]),
        }))
        .unwrap();

    println!("{:>8} {:>14} {:>22} {:>10}", "fields", "by-value", "by-ref (callbacks)", "ratio");
    for &fields in &[1i32, 4, 16] {
        let blob = Blob { fields: (0..fields).map(|i| i * 3).collect() };
        let by_value = time_ns(|| {
            let mut call = orb.call(&consumer, "consume");
            call.args().put_long(fields);
            marshal_value(&blob, call.args());
            let mut reply = orb.invoke(call).unwrap();
            black_box(reply.results().get_longlong().unwrap());
        });
        let by_ref = time_ns(|| {
            let mut call = orb.call(&consumer, "consume");
            call.args().put_long(fields);
            marshal_reference(&source, call.args());
            let mut reply = orb.invoke(call).unwrap();
            black_box(reply.results().get_longlong().unwrap());
        });
        println!(
            "{:>8} {:>14} {:>22} {:>9.1}x",
            fields,
            fmt_ns(by_value),
            fmt_ns(by_ref),
            by_ref / by_value
        );
    }
    println!("expected shape: by-value flat; by-reference grows ~linearly with field count.");
    orb.shutdown();
}

// ---- E6 ------------------------------------------------------------------

fn e6() {
    println!("\n[E6] two-step generation + EST-script rebuild vs IDL reparse");
    let template = heidl_codegen::backend("heidi-cpp")
        .unwrap()
        .templates
        .iter()
        .find(|t| t.name == "interface.tmpl")
        .unwrap()
        .source;
    let registry = heidl_codegen::backend("heidi-cpp").unwrap().registry();
    let est = heidl_est::build(&heidl_idl::parse(heidl_idl::FIG3_IDL).unwrap()).unwrap();

    let compile_t = time_ns(|| {
        black_box(heidl_template::compile(template).unwrap());
    });
    let program = heidl_template::compile(template).unwrap();
    let execute_t = time_ns(|| {
        let mut sink = heidl_template::MemorySink::new();
        heidl_template::run(&program, &est, &registry, &[], &mut sink).unwrap();
        black_box(sink);
    });
    println!("template compile (step 1, once per template): {}", fmt_ns(compile_t));
    println!("template execute (step 2, per IDL file):      {}", fmt_ns(execute_t));

    // The paper's exact claim: "evaluating a perl program that directly
    // rebuilds the EST ... is certainly more efficient than parsing an
    // external representation of the EST." Program evaluation = Replay;
    // external representation = the textual script; IDL reparse shown for
    // context.
    println!(
        "\n{:>12} {:>16} {:>18} {:>18} {:>12}",
        "interfaces", "program replay", "script parse", "IDL reparse", "parse/replay"
    );
    for &n in &[5usize, 20, 80] {
        let idl = module_idl(n, 6);
        let est = heidl_est::build(&heidl_idl::parse(&idl).unwrap()).unwrap();
        let encoded = heidl_est::script::encode(&est);
        let replay = heidl_est::script::Replay::record(&est);
        let replay_t = time_ns(|| {
            black_box(replay.run());
        });
        let decode_t = time_ns(|| {
            black_box(heidl_est::script::decode(&encoded).unwrap());
        });
        let reparse_t = time_ns(|| {
            black_box(heidl_est::build(&heidl_idl::parse(&idl).unwrap()).unwrap());
        });
        println!(
            "{:>12} {:>16} {:>18} {:>18} {:>11.1}x",
            n,
            fmt_ns(replay_t),
            fmt_ns(decode_t),
            fmt_ns(reparse_t),
            decode_t / replay_t
        );
    }
    println!("expected shape: evaluating the rebuild program beats parsing the external");
    println!("representation (paper 4.1).");
}

// ---- E7 ------------------------------------------------------------------

fn e7() {
    println!("\n[E7] generated-code footprint per backend (Fig 3 IDL) and the tcl ORB");
    println!("{:<12} {:>8} {:>12}", "backend", "files", "LoC");
    for name in heidl_codegen::backend_names() {
        let files = heidl_codegen::compile(&name, heidl_idl::FIG3_IDL, "A").unwrap();
        println!("{:<12} {:>8} {:>12}", name, files.len(), files.total_loc());
    }
    let tcl = heidl_codegen::backend("tcl").unwrap();
    let runtime_loc = heidl_codegen::loc::count(tcl.assets[0].content);
    let runtime_code = heidl_codegen::loc::count_code(tcl.assets[0].content, &["#"]);
    println!(
        "\ntcl ORB runtime: {runtime_loc} non-blank lines ({runtime_code} code lines) — paper claims ~700."
    );

    println!("\n      minimal-ORB ablation: one template dropped per arm (heidi-cpp)");
    let full = heidl_codegen::compile("heidi-cpp", heidl_idl::FIG3_IDL, "A").unwrap();
    println!("      full backend output: {} LoC", full.total_loc());
    // Client-only deployment: no skeletons needed.
    let est = heidl_est::build(&heidl_idl::parse(heidl_idl::FIG3_IDL).unwrap()).unwrap();
    let reg = heidl_codegen::backend("heidi-cpp").unwrap().registry();
    let mut client_only = 0usize;
    for t in heidl_codegen::backend("heidi-cpp").unwrap().templates {
        if t.name == "skel.tmpl" {
            continue;
        }
        let p = heidl_template::compile(t.source).unwrap();
        let mut sink = heidl_template::MemorySink::new();
        heidl_template::run(&p, &est, &reg, &[("file".into(), "A".into())], &mut sink).unwrap();
        client_only += sink.files().values().map(|c| heidl_codegen::loc::count(c)).sum::<usize>();
    }
    println!("      client-only (skeleton template dropped): {client_only} LoC");
}

// ---- E8 ------------------------------------------------------------------

fn e8() {
    println!("\n[E8] human-telnet debugging against a live server");
    use std::io::{BufRead, BufReader, Write};
    let orb = Orb::new();
    let endpoint = orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(EchoSkel::shared()).unwrap();
    let mut session = BufReader::new(std::net::TcpStream::connect(endpoint.socket_addr()).unwrap());
    let typed = format!("\"{objref}\" \"ping\" T 41");
    session.get_mut().write_all(typed.as_bytes()).unwrap();
    session.get_mut().write_all(b"\r\n").unwrap();
    let mut reply = String::new();
    session.read_line(&mut reply).unwrap();
    println!("typed  > {typed}");
    println!("reply  < {}", reply.trim_end());
    println!(
        "printable ASCII throughout: {}",
        reply.trim_end().chars().all(|c| c.is_ascii_graphic() || c == ' ')
    );
    orb.shutdown();
}

// ---- E9 ------------------------------------------------------------------

struct Layer {
    base: SkeletonBase,
}

impl Skeleton for Layer {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        if self.base.find(method).is_some() {
            return Ok(DispatchOutcome::Handled);
        }
        self.base.dispatch_parents(method, args, reply)
    }
}

fn e9() {
    println!("\n[E9] recursive dispatch across inheritance-chain depth");
    println!("{:>8} {:>14}", "depth", "dispatch time");
    let protocol = TextProtocol;
    for &depth in &[1usize, 2, 4, 8] {
        let mut skel: Arc<dyn Skeleton> = Arc::new(Layer {
            base: SkeletonBase::new("IDL:Root:1.0", DispatchKind::Hash, ["deepest"], vec![]),
        });
        for i in 0..depth {
            skel = Arc::new(Layer {
                base: SkeletonBase::new(
                    format!("IDL:L{i}:1.0"),
                    DispatchKind::Hash,
                    [format!("own{i}")],
                    vec![skel],
                ),
            });
        }
        let t = time_ns(|| {
            let mut args = protocol.decoder(Vec::new()).unwrap();
            let mut reply = protocol.encoder();
            black_box(skel.dispatch("deepest", args.as_mut(), reply.as_mut()).unwrap());
        });
        println!("{:>8} {:>14}", depth, fmt_ns(t));
    }
    println!("expected shape: cost grows with the delegation depth (paper 3.1).");
}

// ---- E10 -------------------------------------------------------------------

fn e10() {
    use heidl_wire::{plan::encode_interpretive, CdrEncoder, CdrStructPlan, FieldKind, PlanValue};
    println!("\n[E10] USC-style compiled marshal plan vs interpretive encoder (paper 2, ref [3])");
    for &fields in &[4usize, 16, 64] {
        let kinds: Vec<FieldKind> = (0..fields)
            .map(|i| match i % 4 {
                0 => FieldKind::Octet,
                1 => FieldKind::Long,
                2 => FieldKind::Double,
                _ => FieldKind::Short,
            })
            .collect();
        let values: Vec<PlanValue> = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| match k {
                FieldKind::Octet => PlanValue::Octet(i as u8),
                FieldKind::Long => PlanValue::Long(i as i32 * 7),
                FieldKind::Double => PlanValue::Double(i as f64 * 0.5),
                _ => PlanValue::Short(i as i16),
            })
            .collect();
        let plan = CdrStructPlan::compile(&kinds);
        let interp = time_ns(|| {
            let mut enc = CdrEncoder::new();
            encode_interpretive(&values, &mut enc);
            black_box(enc.finish());
        });
        let planned = time_ns(|| {
            let mut out = Vec::with_capacity(plan.size());
            plan.encode(&values, &mut out);
            black_box(out);
        });
        println!(
            "{:>4} fields: interpretive {:>9}  plan {:>9}  ({:.1}x)",
            fields,
            fmt_ns(interp),
            fmt_ns(planned),
            interp / planned
        );
    }
    println!("expected shape: precompiling the byte layout removes per-field alignment");
    println!("work, so the plan wins and the gap widens with field count.");
}

// ---- E11 -------------------------------------------------------------------

/// Execution-recording servant for the multi-node scenario: `put` bumps
/// the cluster-wide per-argument ledger and this incarnation's own
/// dispatch counter.
struct RecordingSkel {
    base: SkeletonBase,
    ledger: Arc<std::sync::Mutex<std::collections::HashMap<i64, u64>>>,
    executed: Arc<AtomicU64>,
}

impl Skeleton for RecordingSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let arg = args.get_longlong()?;
                *self.ledger.lock().unwrap().entry(arg).or_insert(0) += 1;
                self.executed.fetch_add(1, Ordering::SeqCst);
                reply.put_longlong(arg);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// The multi-node tier in one table: three backends behind a [`Router`],
/// backend 0's legs partitioned with seeded probability, backends 1 and 2
/// rolled (leave membership, drain, restart on a fresh port, re-join)
/// while client threads push tokened calls through the routed reference.
/// The printed ledger balance is the exactly-once claim as data.
fn e11(quick: bool) {
    use heidl_rmi::fault::{Fault, FaultOp, FaultPlan, FaultRule, FaultyConnector};
    use heidl_rmi::{
        BackendSource, BreakerConfig, CallOptions, Counter, Endpoint, RetryClass, RetryPolicy,
        Router, SharedBackends, Trigger,
    };
    use std::sync::atomic::AtomicBool;

    type Ledger = Arc<std::sync::Mutex<std::collections::HashMap<i64, u64>>>;
    let seed: u64 =
        std::env::var("HEIDL_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let clients: usize = if quick { 2 } else { 4 };
    let puts_per_client: i64 = if quick { 20 } else { 60 };

    println!("\n[E11] multi-node tier: rolling restarts + partition vs the exactly-once ledger");
    println!("      seed {seed}: backend 0 partitioned (recv p=0.25, send p=0.10, never");
    println!("      restarted); backends 1-2 rolled gracefully; {clients} client threads");

    let ledger: Ledger = Arc::new(std::sync::Mutex::new(std::collections::HashMap::new()));
    let spawn_backend = |ledger: &Ledger| -> (Orb, Endpoint, Arc<AtomicU64>) {
        let orb = Orb::new();
        let endpoint = orb.serve("127.0.0.1:0").unwrap();
        let executed = Arc::new(AtomicU64::new(0));
        orb.export(Arc::new(RecordingSkel {
            base: SkeletonBase::new("IDL:Bench/Recorder:1.0", DispatchKind::Hash, ["put"], vec![]),
            ledger: Arc::clone(ledger),
            executed: Arc::clone(&executed),
        }))
        .unwrap();
        (orb, endpoint, executed)
    };

    let (backend0, ep0, executed0) = spawn_backend(&ledger);
    let (backend1, ep1, _) = spawn_backend(&ledger);
    let (backend2, ep2, _) = spawn_backend(&ledger);
    let source = Arc::new(SharedBackends::with_endpoints([ep0.clone(), ep1.clone(), ep2.clone()]));

    let plan = Arc::new(FaultPlan::new(seed));
    plan.add_rule(
        FaultRule::always(FaultOp::Recv, Fault::DropConnection)
            .at(ep0.socket_addr())
            .when(Trigger::Probability(0.25)),
    );
    plan.add_rule(
        FaultRule::always(FaultOp::Send, Fault::DropConnection)
            .at(ep0.socket_addr())
            .when(Trigger::Probability(0.10)),
    );
    let router = Router::builder(Arc::clone(&source) as Arc<dyn BackendSource>)
        .connector(Arc::new(FaultyConnector::over_tcp(plan)))
        .breaker_config(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(150),
            probe_budget: 1,
            success_threshold: 1,
        })
        .start("127.0.0.1:0")
        .unwrap();
    let target = router.service_ref(1, "IDL:Bench/Recorder:1.0");

    let stop = Arc::new(AtomicBool::new(false));
    let roller = {
        let source = Arc::clone(&source);
        let ledger = Arc::clone(&ledger);
        let stop = Arc::clone(&stop);
        let mut slots = vec![(backend1, ep1), (backend2, ep2)];
        std::thread::spawn(move || {
            let mut which = 0usize;
            let mut rolls = 0u32;
            while !stop.load(Ordering::SeqCst) {
                let (old_orb, old_ep) = slots[which].clone();
                source.remove(&old_ep);
                std::thread::sleep(Duration::from_millis(120));
                old_orb.shutdown_and_drain();
                let orb = Orb::new();
                let endpoint = orb.serve("127.0.0.1:0").unwrap();
                orb.export(Arc::new(RecordingSkel {
                    base: SkeletonBase::new(
                        "IDL:Bench/Recorder:1.0",
                        DispatchKind::Hash,
                        ["put"],
                        vec![],
                    ),
                    ledger: Arc::clone(&ledger),
                    executed: Arc::new(AtomicU64::new(0)),
                }))
                .unwrap();
                source.add(endpoint.clone());
                slots[which] = (orb, endpoint);
                which = 1 - which;
                rolls += 1;
                std::thread::sleep(Duration::from_millis(80));
            }
            (slots, rolls)
        })
    };

    let mut latencies: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let target = target.clone();
                scope.spawn(move || {
                    let orb = Orb::builder()
                        .retry_policy(
                            RetryPolicy::default()
                                .with_max_attempts(40)
                                .with_backoff(Duration::from_millis(2), Duration::from_millis(25))
                                .with_jitter_seed(seed ^ c as u64),
                        )
                        .build();
                    let options =
                        CallOptions::builder().retry_class(RetryClass::ExactlyOnce).build();
                    let mut lat = Vec::new();
                    for i in 0..puts_per_client {
                        let arg = (c as i64 + 1) * 1_000_000 + i;
                        let started = Instant::now();
                        let mut call = orb.call(&target, "put");
                        call.args().put_longlong(arg);
                        let mut reply = orb.invoke_with(call, options).unwrap();
                        assert_eq!(reply.results().get_longlong().unwrap(), arg);
                        lat.push(started.elapsed());
                    }
                    orb.shutdown();
                    lat
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().unwrap());
        }
    });
    stop.store(true, Ordering::SeqCst);
    let (slots, rolls) = roller.join().unwrap();

    let issued = clients as u64 * puts_per_client as u64;
    let counts = ledger.lock().unwrap();
    let unique = counts.len() as u64;
    let max_count = counts.values().copied().max().unwrap_or(0);
    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    let dedups = backend0.metrics().get(Counter::DedupReplays);
    let recovered =
        router.metrics().get(Counter::Retries) + router.metrics().get(Counter::Reconnects);

    println!("{:<44} {:>10}", "tokened calls issued (all returned Ok)", issued);
    println!("{:<44} {:>10}", "unique invocations executed", unique);
    println!("{:<44} {:>10}", "max executions of any invocation", max_count);
    println!("{:<44} {:>10}", "replays answered from backend 0's cache", dedups);
    println!("{:<44} {:>10}", "router mid-call retries + redials", recovered);
    println!("{:<44} {:>10}", "rolling restarts completed", rolls);
    println!(
        "{:<44} {:>10}",
        "backend 0 dispatches (partition survivor)",
        executed0.load(Ordering::SeqCst)
    );
    println!(
        "{:<44} {:>10} / {:>8}",
        "call latency p50 / p99",
        fmt_ns(p50.as_nanos() as f64),
        fmt_ns(p99.as_nanos() as f64)
    );
    println!(
        "exactly-once held: {} (every invocation executed once, none lost, none doubled)",
        unique == issued && max_count == 1
    );

    router.shutdown();
    backend0.shutdown();
    for (orb, _) in slots {
        orb.shutdown();
    }
}

// ---- e12: bulk transfer + pipelined storm ---------------------------------

/// Streams `total` bytes of repeating alphabet without materializing them:
/// the producer hands out slices of one pre-built block.
struct BlockStreamer {
    total: usize,
}

impl heidl_rmi::StreamServant for BlockStreamer {
    fn type_id(&self) -> &str {
        "IDL:Bench/Blob:1.0"
    }

    fn open(&self, method: &str, _args: &mut dyn Decoder) -> RmiResult<heidl_rmi::StreamBody> {
        if method != "pour" {
            return Err(heidl_rmi::RmiError::UnknownMethod {
                method: method.to_owned(),
                type_id: "IDL:Bench/Blob:1.0".to_owned(),
            });
        }
        let total = self.total;
        let block: String = "abcdefghijklmnopqrstuvwxyz".repeat(256 * 1024 / 26 + 1);
        let mut sent = 0usize;
        Ok(heidl_rmi::StreamBody::from_fn(move |max| {
            if sent >= total {
                return None;
            }
            let take = max.min(total - sent).min(block.len());
            sent += take;
            Some(block[..take].to_owned())
        }))
    }
}

/// One streamed bulk pull: returns (MB/s, client high-water bytes).
fn measure_stream(mode: TransportMode, total: usize, window: usize, chunk: usize) -> (f64, usize) {
    let policy =
        ServerPolicy::default().with_stream_chunk_bytes(chunk).with_stream_window_bytes(window);
    let server = Orb::builder()
        .transport_mode(mode)
        .protocol(Arc::new(CdrProtocol))
        .server_policy(policy.clone())
        .build();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export_stream(Arc::new(BlockStreamer { total })).unwrap();
    // The client's ServerPolicy doubles as its stream tuning: the
    // requested credit window rides in the request's chunk tail.
    let client = Orb::builder()
        .transport_mode(mode)
        .protocol(Arc::new(CdrProtocol))
        .server_policy(policy)
        .build();
    let started = Instant::now();
    let call = client.call(&objref, "pour");
    let mut stream = client.invoke_stream(call).unwrap();
    let mut received = 0usize;
    while let Some(fragment) = stream.next_chunk().unwrap() {
        received += fragment.len();
    }
    let elapsed = started.elapsed();
    assert_eq!(received, total, "stream transfer truncated");
    let high_water = stream.high_water_bytes();
    client.shutdown();
    server.shutdown();
    (total as f64 / (1 << 20) as f64 / elapsed.as_secs_f64(), high_water)
}

/// The mux storm from `roundtrip`, with client-side pipelining on or off:
/// many threads, tiny echo calls, one pooled connection. Returns calls/sec.
fn measure_pipeline_storm(pipelined: bool, threads: usize, per_thread: usize) -> f64 {
    let server = Orb::builder().protocol(Arc::new(CdrProtocol)).build();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(EchoStrSkel::shared()).unwrap();
    let client = Orb::builder().protocol(Arc::new(CdrProtocol)).pipelining(pipelined).build();
    for _ in 0..64 {
        echo_once(&client, &objref, "x");
    }
    let calls = threads * per_thread;
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let client = client.clone();
            let objref = objref.clone();
            scope.spawn(move || {
                for _ in 0..per_thread {
                    echo_once(&client, &objref, "x");
                }
            });
        }
    });
    let elapsed = wall.elapsed();
    client.shutdown();
    server.shutdown();
    calls as f64 / elapsed.as_secs_f64()
}

/// A servant for the oneway burst: `fire` is replyless, `sync` replies
/// with how many fires have landed (per-connection frame order makes one
/// trailing sync a delivery barrier for every earlier oneway).
struct BurstSkel {
    base: SkeletonBase,
    fired: AtomicU64,
}

impl Skeleton for BurstSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let _ = args.get_string()?;
                self.fired.fetch_add(1, Ordering::Relaxed);
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                reply.put_ulonglong(self.fired.load(Ordering::Relaxed));
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// Oneway burst: many threads fire replyless calls as fast as they can.
/// With no reply wait the writer lock is genuinely contended, so this is
/// where write-combining pays — batches of frames per syscall instead of
/// one each. Returns oneways/sec including the trailing delivery barrier.
fn measure_oneway_burst(pipelined: bool, threads: usize, per_thread: usize) -> f64 {
    let server = Orb::builder().protocol(Arc::new(CdrProtocol)).build();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server
        .export(Arc::new(BurstSkel {
            base: SkeletonBase::new(
                "IDL:Bench/Burst:1.0",
                DispatchKind::Hash,
                ["fire", "sync"],
                vec![],
            ),
            fired: AtomicU64::new(0),
        }))
        .unwrap();
    let client = Orb::builder().protocol(Arc::new(CdrProtocol)).pipelining(pipelined).build();
    let sync = |client: &Orb| -> u64 {
        let call = client.call(&objref, "sync");
        let mut reply = client.invoke(call).unwrap();
        reply.results().get_ulonglong().unwrap()
    };
    sync(&client);
    let calls = (threads * per_thread) as u64;
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let client = client.clone();
            let objref = objref.clone();
            scope.spawn(move || {
                for _ in 0..per_thread {
                    let mut call = client.call_oneway(&objref, "fire");
                    call.args().put_string("x");
                    client.invoke_oneway(call).unwrap();
                }
            });
        }
    });
    let landed = sync(&client);
    let elapsed = wall.elapsed();
    assert_eq!(landed, calls, "oneway burst lost frames");
    client.shutdown();
    server.shutdown();
    calls as f64 / elapsed.as_secs_f64()
}

fn e12(quick: bool) {
    let total: usize = if quick { 8 << 20 } else { 64 << 20 };
    let window: usize = 1 << 20;
    let chunk: usize = 256 << 10;
    let threads = 16;
    let per_thread = if quick { 400 } else { 1500 };

    println!("\n[E12] bulk transfer: chunked streaming under a credit window, then a");
    println!("      pipelined small-call storm against the same storm un-pipelined");

    let (mbps_threaded, hw_threaded) =
        measure_stream(TransportMode::Threaded, total, window, chunk);
    let (mbps_reactor, hw_reactor) = measure_stream(TransportMode::Reactor, total, window, chunk);
    // Interleaved best-of-N: single storm runs swing with scheduler noise
    // far more than the pipelining delta, and alternating the two arms
    // keeps slow-machine drift from favoring either side.
    let rounds = if quick { 3 } else { 5 };
    let mut plain_cps: f64 = 0.0;
    let mut pipelined_cps: f64 = 0.0;
    let mut plain_burst: f64 = 0.0;
    let mut pipelined_burst: f64 = 0.0;
    for _ in 0..rounds {
        plain_cps = plain_cps.max(measure_pipeline_storm(false, threads, per_thread));
        pipelined_cps = pipelined_cps.max(measure_pipeline_storm(true, threads, per_thread));
        plain_burst = plain_burst.max(measure_oneway_burst(false, threads, per_thread));
        pipelined_burst = pipelined_burst.max(measure_oneway_burst(true, threads, per_thread));
    }

    let mib = total / (1 << 20);
    println!(
        "{:<44} {:>7.0} MB/s  (peak buffer {} KiB)",
        format!("streamed {mib} MiB, threaded engine"),
        mbps_threaded,
        hw_threaded / 1024
    );
    println!(
        "{:<44} {:>7.0} MB/s  (peak buffer {} KiB)",
        format!("streamed {mib} MiB, reactor engine"),
        mbps_reactor,
        hw_reactor / 1024
    );
    println!(
        "{:<44} {:>10.0}",
        format!("storm {threads}x{per_thread} un-pipelined calls/sec"),
        plain_cps
    );
    println!(
        "{:<44} {:>10.0}  ({:.2}x)",
        format!("storm {threads}x{per_thread} pipelined calls/sec"),
        pipelined_cps,
        pipelined_cps / plain_cps
    );
    println!(
        "{:<44} {:>10.0}",
        format!("oneway burst {threads}x{per_thread} un-pipelined/sec"),
        plain_burst
    );
    println!(
        "{:<44} {:>10.0}  ({:.2}x)",
        format!("oneway burst {threads}x{per_thread} pipelined/sec"),
        pipelined_burst,
        pipelined_burst / plain_burst
    );
    println!(
        "bounded buffering held: {} (peak <= window {} KiB + chunk {} KiB)",
        hw_threaded <= window + chunk && hw_reactor <= window + chunk,
        window / 1024,
        chunk / 1024
    );

    let out = format!(
        "{{\n  \"schema\": \"heidl-bench-stream/v1\",\n  \"quick\": {quick},\n  \"results\": {{\n    \
         \"stream_threaded\": {{\"mbps\": {mbps_threaded:.0}, \"high_water_bytes\": {hw_threaded}}},\n    \
         \"stream_reactor\": {{\"mbps\": {mbps_reactor:.0}, \"high_water_bytes\": {hw_reactor}}},\n    \
         \"storm_plain\": {{\"calls_per_sec\": {plain_cps:.0}}},\n    \
         \"storm_pipelined\": {{\"calls_per_sec\": {pipelined_cps:.0}}},\n    \
         \"burst_plain\": {{\"calls_per_sec\": {plain_burst:.0}}},\n    \
         \"burst_pipelined\": {{\"calls_per_sec\": {pipelined_burst:.0}}},\n    \
         \"config\": {{\"total_bytes\": {total}, \"window_bytes\": {window}, \"chunk_bytes\": {chunk}}}\n  }}\n}}\n"
    );
    let path =
        std::env::var("BENCH_STREAM_OUT").unwrap_or_else(|_| "BENCH_stream.json".to_string());
    match std::fs::write(&path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }

    // CI gate (HEIDL_BENCH_ASSERT_STREAM=1): the buffering bound is a hard
    // invariant; the pipelining win gets a noise margin because shared
    // runners jitter but a write-combined storm must never be plainly slower.
    if std::env::var("HEIDL_BENCH_ASSERT_STREAM").is_ok() {
        if hw_threaded > window + chunk || hw_reactor > window + chunk {
            eprintln!(
                "stream buffering regression: peak {} / {} exceeds window {} + chunk {}",
                hw_threaded, hw_reactor, window, chunk
            );
            std::process::exit(1);
        }
        if pipelined_cps < plain_cps * 0.9 {
            eprintln!(
                "pipelining regression: {pipelined_cps:.0} calls/sec < 0.9x un-pipelined \
                 {plain_cps:.0}"
            );
            std::process::exit(1);
        }
        if pipelined_burst < plain_burst * 0.95 {
            eprintln!(
                "oneway coalescing regression: {pipelined_burst:.0}/sec < 0.95x un-pipelined \
                 {plain_burst:.0}"
            );
            std::process::exit(1);
        }
        println!(
            "stream gate ok: peaks {hw_threaded}/{hw_reactor} bounded, \
             pipelined {:.2}x, oneway burst {:.2}x",
            pipelined_cps / plain_cps,
            pipelined_burst / plain_burst
        );
    }
}

// ---- roundtrip perf baseline ----------------------------------------------

/// A skeleton that echoes a string back, so the hot path exercises string
/// marshalling and body sizes beyond the fixed header.
struct EchoStrSkel {
    base: SkeletonBase,
}

impl EchoStrSkel {
    fn shared() -> Arc<dyn Skeleton> {
        Arc::new(EchoStrSkel {
            base: SkeletonBase::new("IDL:Bench/EchoStr:1.0", DispatchKind::Hash, ["echo"], vec![]),
        })
    }
}

impl Skeleton for EchoStrSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let v = args.get_string()?;
                reply.put_string(&v);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

fn echo_once(orb: &Orb, objref: &ObjectRef, payload: &str) {
    let mut call = orb.call(objref, "echo");
    call.args().put_string(payload);
    let mut reply = orb.invoke(call).unwrap();
    black_box(reply.results().get_string().unwrap());
}

#[derive(Clone, Default)]
struct WorkloadStat {
    p50_ns: f64,
    p99_ns: f64,
    calls_per_sec: f64,
    allocs_per_call: f64,
    /// Non-empty log₂ latency buckets `(lower_bound_ns, count)` pulled
    /// from the ORB's metrics registry — the same histogram `_metrics`
    /// serves, so the bench and a live server report identical shapes.
    latency_buckets_ns: Vec<(u64, u64)>,
}

fn echo_payload() -> String {
    "x".repeat(96)
}

/// `HEIDL_BENCH_HEARTBEAT=<ms>` turns on client heartbeats for the echo
/// workloads, so CI can assert the liveness layer stays off the hot path
/// (an idle-only ping must not add allocations to a busy connection).
fn heartbeat_interval() -> Option<Duration> {
    let ms: u64 = std::env::var("HEIDL_BENCH_HEARTBEAT").ok()?.parse().ok()?;
    Some(Duration::from_millis(ms.max(1)))
}

fn bench_orb(protocol: Arc<dyn Protocol>) -> Orb {
    let builder = Orb::builder().protocol(protocol);
    match heartbeat_interval() {
        Some(interval) => builder.heartbeat(interval).build(),
        None => builder.build(),
    }
}

/// Sequential echo over TCP loopback: per-call latency distribution.
fn measure_echo(protocol: Arc<dyn Protocol>, calls: usize) -> WorkloadStat {
    let payload = echo_payload();
    let orb = bench_orb(protocol);
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(EchoStrSkel::shared()).unwrap();
    for _ in 0..calls.min(64) {
        echo_once(&orb, &objref, &payload);
    }
    let mut lat = Vec::with_capacity(calls);
    let alloc0 = allocs_so_far();
    let wall = Instant::now();
    for _ in 0..calls {
        let t = Instant::now();
        echo_once(&orb, &objref, &payload);
        lat.push(t.elapsed().as_nanos() as u64);
    }
    let elapsed = wall.elapsed();
    let allocs = allocs_so_far() - alloc0;
    // Per-op detail is pay-for-use and stays off during the timed loop, so
    // the throughput/alloc numbers above measure the default hot path. A
    // short detail-on sampling pass afterwards still gives the report the
    // same bucket shape `_metrics` serves.
    orb.metrics().set_detail(true);
    for _ in 0..calls.min(2048) {
        echo_once(&orb, &objref, &payload);
    }
    let latency_buckets_ns =
        orb.metrics().client_op("echo").map(|op| op.latency.nonzero_buckets()).unwrap_or_default();
    orb.shutdown();
    lat.sort_unstable();
    WorkloadStat {
        p50_ns: lat[calls / 2] as f64,
        p99_ns: lat[(calls * 99 / 100).min(calls - 1)] as f64,
        calls_per_sec: calls as f64 / elapsed.as_secs_f64(),
        allocs_per_call: allocs as f64 / calls as f64,
        latency_buckets_ns,
    }
}

/// Multiplexed storm: many threads hammering one server concurrently, all
/// calls multiplexed over the pooled connection(s). Reports aggregate
/// throughput and process-wide allocations per call.
fn measure_storm(protocol: Arc<dyn Protocol>, threads: usize, per_thread: usize) -> WorkloadStat {
    let payload = echo_payload();
    let orb = bench_orb(protocol);
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(EchoStrSkel::shared()).unwrap();
    for _ in 0..64 {
        echo_once(&orb, &objref, &payload);
    }
    let calls = threads * per_thread;
    let alloc0 = allocs_so_far();
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let orb = orb.clone();
            let objref = objref.clone();
            let payload = payload.clone();
            scope.spawn(move || {
                for _ in 0..per_thread {
                    echo_once(&orb, &objref, &payload);
                }
            });
        }
    });
    let elapsed = wall.elapsed();
    let allocs = allocs_so_far() - alloc0;
    // Same pay-for-use split as `measure_echo`: detail off while timing,
    // then a short sampling pass for the latency-bucket shape.
    orb.metrics().set_detail(true);
    for _ in 0..2048 {
        echo_once(&orb, &objref, &payload);
    }
    let latency_buckets_ns =
        orb.metrics().client_op("echo").map(|op| op.latency.nonzero_buckets()).unwrap_or_default();
    orb.shutdown();
    WorkloadStat {
        p50_ns: 0.0,
        p99_ns: 0.0,
        calls_per_sec: calls as f64 / elapsed.as_secs_f64(),
        allocs_per_call: allocs as f64 / calls as f64,
        latency_buckets_ns,
    }
}

/// Marshal-only throughput: encode + decode of the echo payload with no
/// network, isolating codec + buffer-management cost.
fn measure_marshal(protocol: &dyn Protocol) -> WorkloadStat {
    let payload = echo_payload();
    let alloc0 = allocs_so_far();
    let mut iters = 0u64;
    let ns = time_ns(|| {
        let mut enc = protocol.encoder();
        enc.put_ulonglong(42);
        enc.put_string(&payload);
        let body = enc.finish();
        let mut dec = protocol.decoder(body).unwrap();
        black_box(dec.get_ulonglong().unwrap());
        black_box(dec.get_string().unwrap());
        iters += 1;
    });
    let allocs = allocs_so_far() - alloc0;
    WorkloadStat {
        p50_ns: ns,
        p99_ns: 0.0,
        calls_per_sec: 1e9 / ns,
        allocs_per_call: allocs as f64 / iters.max(1) as f64,
        latency_buckets_ns: Vec::new(),
    }
}

fn json_stat(name: &str, s: &WorkloadStat) -> String {
    let mut out = format!(
        "    \"{name}\": {{\"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"calls_per_sec\": {:.0}, \"allocs_per_call\": {:.1}",
        s.p50_ns, s.p99_ns, s.calls_per_sec, s.allocs_per_call
    );
    if !s.latency_buckets_ns.is_empty() {
        // Arrays only: `extract_results` balances braces, not brackets.
        let buckets: Vec<String> =
            s.latency_buckets_ns.iter().map(|(lo, n)| format!("[{lo}, {n}]")).collect();
        out.push_str(&format!(", \"latency_buckets_ns\": [{}]", buckets.join(", ")));
    }
    out.push('}');
    out
}

/// Pulls `"<workload>": {... "<field>": X ...}` out of a baseline JSON
/// blob without a JSON parser (the file is our own output).
fn baseline_field(json: &str, workload: &str, field: &str) -> Option<f64> {
    let start = json.find(&format!("\"{workload}\":"))?;
    let obj = &json[start..start + json[start..].find('}')?];
    let key = format!("\"{field}\":");
    let pos = obj.find(&key)?;
    let rest = obj[pos + key.len()..].trim_start();
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the `"results": { ... }` object (brace-balanced) from a previous
/// run's JSON so it can be embedded as the `baseline` of this run.
fn extract_results(json: &str) -> Option<String> {
    let start = json.find("\"results\":")?;
    let open = start + json[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..=open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn roundtrip(quick: bool) {
    println!("\n[roundtrip] perf baseline: echo latency, mux storm, marshal throughput");
    if let Some(interval) = heartbeat_interval() {
        println!("            client heartbeats ON ({interval:?} interval)");
    }
    let calls = if quick { 300 } else { 4000 };
    let (threads, per_thread) = if quick { (4, 100) } else { (8, 1500) };

    let echo_text = measure_echo(Arc::new(TextProtocol), calls);
    let echo_cdr = measure_echo(Arc::new(CdrProtocol), calls);
    let storm_cdr = measure_storm(Arc::new(CdrProtocol), threads, per_thread);
    let marshal_text = measure_marshal(&TextProtocol);
    let marshal_cdr = measure_marshal(&CdrProtocol);

    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>12}",
        "workload", "p50", "p99", "calls/sec", "allocs/call"
    );
    for (name, s) in [
        ("echo_text", &echo_text),
        ("echo_cdr", &echo_cdr),
        ("storm_cdr", &storm_cdr),
        ("marshal_text", &marshal_text),
        ("marshal_cdr", &marshal_cdr),
    ] {
        println!(
            "{:<14} {:>12} {:>12} {:>14.0} {:>12.1}",
            name,
            fmt_ns(s.p50_ns),
            fmt_ns(s.p99_ns),
            s.calls_per_sec,
            s.allocs_per_call
        );
    }

    let results = format!(
        "{{\n{},\n{},\n{},\n{},\n{}\n  }}",
        json_stat("echo_text", &echo_text),
        json_stat("echo_cdr", &echo_cdr),
        json_stat("storm_cdr", &storm_cdr),
        json_stat("marshal_text", &marshal_text),
        json_stat("marshal_cdr", &marshal_cdr),
    );
    let baseline = std::env::var("HEIDL_BENCH_BASELINE")
        .ok()
        .and_then(|path| std::fs::read_to_string(path).ok())
        .and_then(|prev| extract_results(&prev));
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"heidl-bench-roundtrip/v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"results\": {results}"));
    if let Some(base) = baseline {
        out.push_str(&format!(",\n  \"baseline\": {base}"));
    }
    out.push_str("\n}\n");
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_roundtrip.json".to_string());
    match std::fs::write(&path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }

    // CI regression gate (HEIDL_BENCH_ASSERT_ALLOCS=1): with tracing
    // disabled — the default — CDR echo must not allocate more per call
    // than the recorded baseline, within a small noise budget. This is
    // what keeps the observability layer honest about "zero cost off".
    if std::env::var("HEIDL_BENCH_ASSERT_ALLOCS").is_ok() {
        let baseline_json = std::env::var("HEIDL_BENCH_BASELINE")
            .ok()
            .and_then(|p| std::fs::read_to_string(p).ok());
        // Both protocols are gated: the text codec's in-place scanning and
        // direct-to-buffer formatting are as load-bearing as the CDR
        // encoder pool, and only a per-workload ratchet notices one of
        // them regressing.
        for (name, measured) in
            [("echo_cdr", echo_cdr.allocs_per_call), ("echo_text", echo_text.allocs_per_call)]
        {
            let base = baseline_json
                .as_deref()
                .and_then(|prev| baseline_field(prev, name, "allocs_per_call"));
            match base {
                Some(base) => {
                    let budget = base + 5.0;
                    if measured > budget {
                        eprintln!(
                            "allocs/call regression: {name} measured {measured:.1} > budget \
                             {budget:.1} (baseline {base:.1})"
                        );
                        std::process::exit(1);
                    }
                    println!(
                        "alloc gate ok: {name} {measured:.1} allocs/call \
                         (baseline {base:.1}, budget {budget:.1})"
                    );
                }
                None => println!("alloc gate skipped for {name}: no parsable baseline"),
            }
        }
    }

    // CI throughput ratchet (HEIDL_BENCH_ASSERT_CPS=1): CDR echo round-trip
    // throughput must stay within 15% of the checked-in baseline. The
    // margin is generous because shared runners are noisy — this trips on
    // real regressions (a lock or allocation storm on the hot path), not
    // on scheduler jitter.
    if std::env::var("HEIDL_BENCH_ASSERT_CPS").is_ok() {
        let base = std::env::var("HEIDL_BENCH_BASELINE")
            .ok()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .and_then(|prev| baseline_field(&prev, "echo_cdr", "calls_per_sec"));
        match base {
            Some(base) if base > 0.0 => {
                let measured = echo_cdr.calls_per_sec;
                let floor = base * 0.85;
                if measured < floor {
                    eprintln!(
                        "throughput regression: echo_cdr {measured:.0} calls/sec < floor \
                         {floor:.0} (baseline {base:.0}, 15% margin)"
                    );
                    std::process::exit(1);
                }
                println!(
                    "cps gate ok: echo_cdr {measured:.0} calls/sec \
                     (baseline {base:.0}, floor {floor:.0})"
                );
            }
            _ => println!("cps gate skipped: no parsable HEIDL_BENCH_BASELINE"),
        }
    }
}

// ---- c10k ----------------------------------------------------------------

/// This process's soft "max open files" limit, read from `/proc` (the
/// bench crate deliberately links no libc bindings).
fn nofile_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits
                .lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(1024)
}

/// Reads one numeric field (`Threads`, `VmRSS` in kB, …) from
/// `/proc/self/status`.
fn proc_status(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

struct C10kStat {
    conns: usize,
    /// Threads the *idle* connections added (callers come later, so this
    /// is the per-connection thread cost in isolation).
    thread_delta: u64,
    rss_delta_kb: u64,
    calls_per_sec: f64,
    p50_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
}

/// One engine's run: park `conns` idle connections on the server, then
/// drive echo traffic from `callers` threads through the crowd and report
/// what the idle mass cost (threads, RSS) and what it did to tail latency.
fn measure_c10k(mode: TransportMode, conns: usize, callers: usize, calls: usize) -> C10kStat {
    let orb = Orb::builder()
        .transport_mode(mode)
        .protocol(Arc::new(CdrProtocol))
        .server_policy(ServerPolicy::default().with_max_connections(conns + callers + 64))
        .build();
    let endpoint = orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(EchoStrSkel::shared()).unwrap();
    let payload = echo_payload();
    // Warm the client connection and every lazily-spawned helper thread
    // before the baseline readings.
    for _ in 0..64 {
        echo_once(&orb, &objref, &payload);
    }
    let threads0 = proc_status("Threads");
    let rss0 = proc_status("VmRSS");
    let mut idle = Vec::with_capacity(conns);
    while idle.len() < conns {
        match std::net::TcpStream::connect((endpoint.host.as_str(), endpoint.port)) {
            Ok(stream) => idle.push(stream),
            Err(e) => {
                // Backlog pressure: let the acceptor catch up, then retry.
                println!("  connect stalled at {} conns ({e}); retrying", idle.len());
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    // Wait for the server to register the whole crowd (plus the warmed
    // client connection) so the readings below include every one.
    let deadline = Instant::now() + Duration::from_secs(60);
    while orb.server_health().map_or(0, |h| h.connections) < (conns + 1) as u64 {
        assert!(Instant::now() < deadline, "server never registered all {conns} connections");
        std::thread::sleep(Duration::from_millis(20));
    }
    let thread_delta = proc_status("Threads").saturating_sub(threads0);
    let rss_delta_kb = proc_status("VmRSS").saturating_sub(rss0);
    // Tail latency through the parked crowd.
    let lat = std::sync::Mutex::new(Vec::with_capacity(calls));
    let per_caller = calls / callers;
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..callers {
            let orb = orb.clone();
            let objref = objref.clone();
            let payload = payload.clone();
            let lat = &lat;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(per_caller);
                for _ in 0..per_caller {
                    let t = Instant::now();
                    echo_once(&orb, &objref, &payload);
                    mine.push(t.elapsed().as_nanos() as u64);
                }
                lat.lock().unwrap().extend(mine);
            });
        }
    });
    let elapsed = wall.elapsed();
    drop(idle);
    orb.shutdown();
    let mut lat = lat.into_inner().unwrap();
    lat.sort_unstable();
    let pct = |q: f64| lat[((lat.len() as f64 * q) as usize).min(lat.len() - 1)] as f64;
    C10kStat {
        conns,
        thread_delta,
        rss_delta_kb,
        calls_per_sec: (per_caller * callers) as f64 / elapsed.as_secs_f64(),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        p999_ns: pct(0.999),
    }
}

/// The c10k scenario: can the server hold ten thousand mostly-idle
/// connections and still serve traffic? The reactor engine runs at full
/// scale (clamped only by the fd rlimit — both socket ends live in this
/// process); the thread-per-connection engine runs a reduced-scale
/// comparison point, since its cost per connection is a whole thread.
fn c10k(quick: bool) {
    println!("\n[c10k] idle-connection scaling: reactor vs thread-per-connection");
    // Three fds per in-process connection: the client socket, the
    // server-accepted socket, and the server's `try_clone` of it (the
    // transport split hands the reader and writer separate owners).
    let budget = (nofile_limit().saturating_sub(512) / 3) as usize;
    let target: usize = std::env::var("HEIDL_BENCH_C10K_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1_000 } else { 10_000 });
    let reactor_conns = target.min(budget);
    if reactor_conns < target {
        println!(
            "  fd rlimit clamps the run: {target} requested, {reactor_conns} possible \
             (nofile {}, three fds per in-process connection)",
            nofile_limit()
        );
    }
    let threaded_conns = reactor_conns.min(if quick { 128 } else { 512 });
    let (callers, calls) = if quick { (4, 2_000) } else { (8, 16_000) };

    let reactor = measure_c10k(TransportMode::Reactor, reactor_conns, callers, calls);
    // Structural acceptance, not a perf number: parking the idle crowd
    // must not have spawned per-connection threads — the whole server
    // stays within its worker pool plus the reactor loop.
    assert!(
        reactor.thread_delta <= 2,
        "reactor mode spawned {} threads for {} idle connections",
        reactor.thread_delta,
        reactor.conns
    );
    let threaded = measure_c10k(TransportMode::Threaded, threaded_conns, callers, calls);

    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "engine", "conns", "+threads", "+rss", "calls/sec", "p50", "p99", "p99.9"
    );
    for (name, s) in [("reactor", &reactor), ("threaded", &threaded)] {
        println!(
            "{:<16} {:>8} {:>10} {:>11}K {:>12.0} {:>10} {:>10} {:>10}",
            name,
            s.conns,
            s.thread_delta,
            s.rss_delta_kb,
            s.calls_per_sec,
            fmt_ns(s.p50_ns),
            fmt_ns(s.p99_ns),
            fmt_ns(s.p999_ns)
        );
    }

    let json_c10k = |name: &str, s: &C10kStat| {
        format!(
            "    \"{name}\": {{\"conns\": {}, \"thread_delta\": {}, \"rss_delta_kb\": {}, \
             \"calls_per_sec\": {:.0}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"p999_ns\": {:.0}}}",
            s.conns, s.thread_delta, s.rss_delta_kb, s.calls_per_sec, s.p50_ns, s.p99_ns, s.p999_ns
        )
    };
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"heidl-bench-c10k/v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"results\": {\n");
    out.push_str(&json_c10k("c10k_reactor", &reactor));
    out.push_str(",\n");
    out.push_str(&json_c10k("c10k_threaded", &threaded));
    out.push_str("\n  }\n}\n");
    let path = std::env::var("BENCH_C10K_OUT").unwrap_or_else(|_| "BENCH_c10k.json".to_string());
    match std::fs::write(&path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}
