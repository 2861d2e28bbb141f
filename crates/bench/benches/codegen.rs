//! E6: the two-step code generation and the EST-script argument.
//!
//! Paper §4.1: "the first step of the code-generation stage need only be
//! performed once for a particular code-generation template. Moreover,
//! evaluating a perl program that directly rebuilds the EST ... is
//! certainly more efficient than parsing an external representation of
//! the EST." We measure: template compile (step 1) vs execute (step 2),
//! and EST-script decode vs full IDL reparse+rebuild across module sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use heidl_bench::module_idl;
use heidl_est::script;
use std::hint::black_box;

fn fig9_like_template() -> &'static str {
    heidl_codegen::backend("heidi-cpp")
        .unwrap()
        .templates
        .iter()
        .find(|t| t.name == "interface.tmpl")
        .unwrap()
        .source
}

fn bench_two_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_two_step");
    group.sample_size(60);
    let template = fig9_like_template();
    let est = heidl_est::build(&heidl_idl::parse(heidl_idl::FIG3_IDL).unwrap()).unwrap();
    let registry = heidl_codegen::backend("heidi-cpp").unwrap().registry();

    group.bench_function("step1_template_compile", |b| {
        b.iter(|| black_box(heidl_template::compile(black_box(template)).unwrap()))
    });

    let program = heidl_template::compile(template).unwrap();
    group.bench_function("step2_template_execute", |b| {
        b.iter(|| {
            let mut sink = heidl_template::MemorySink::new();
            heidl_template::run(&program, &est, &registry, &[], &mut sink).unwrap();
            black_box(sink)
        })
    });

    group.bench_function("both_steps_every_time", |b| {
        b.iter(|| {
            let program = heidl_template::compile(template).unwrap();
            let mut sink = heidl_template::MemorySink::new();
            heidl_template::run(&program, &est, &registry, &[], &mut sink).unwrap();
            black_box(sink)
        })
    });
    group.finish();
}

fn bench_est_rebuild_vs_reparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_est_rebuild_vs_reparse");
    group.sample_size(40);
    for &interfaces in &[5usize, 20, 80] {
        let idl = module_idl(interfaces, 6);
        let est = heidl_est::build(&heidl_idl::parse(&idl).unwrap()).unwrap();
        let encoded = script::encode(&est);
        let replay = script::Replay::record(&est);

        // The paper's §4.1 comparison: evaluating the rebuild program...
        group.bench_function(BenchmarkId::new("program_replay", interfaces), |b| {
            b.iter(|| black_box(replay.run()))
        });
        // ...vs parsing an external representation of the EST...
        group.bench_function(BenchmarkId::new("est_script_decode", interfaces), |b| {
            b.iter(|| black_box(script::decode(black_box(&encoded)).unwrap()))
        });
        // ...with a full IDL reparse for context.
        group.bench_function(BenchmarkId::new("idl_reparse_and_rebuild", interfaces), |b| {
            b.iter(|| {
                let spec = heidl_idl::parse(black_box(&idl)).unwrap();
                black_box(heidl_est::build(&spec).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_full_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_full_compile");
    group.sample_size(40);
    for backend in ["heidi-cpp", "tcl", "rust"] {
        let compiler = heidl_codegen::Compiler::new(backend).unwrap();
        group.bench_function(BenchmarkId::from_parameter(backend), |b| {
            b.iter(|| {
                black_box(compiler.compile_source(black_box(heidl_idl::FIG3_IDL), "A").unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_two_step, bench_est_rebuild_vs_reparse, bench_full_compile);
criterion_main!(benches);
