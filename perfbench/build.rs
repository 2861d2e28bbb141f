//! Build script: compiles `idl/bench.idl` with the `rust` backend, so the
//! struct workloads run through generated stubs and skeletons.

use std::path::PathBuf;

fn main() {
    println!("cargo:rerun-if-changed=idl/bench.idl");
    let idl = std::fs::read_to_string("idl/bench.idl").expect("read idl/bench.idl");
    let files = heidl_codegen::compile("rust", &idl, "bench")
        .unwrap_or_else(|e| panic!("heidlc failed on idl/bench.idl: {e}"));
    let out_dir = PathBuf::from(std::env::var("OUT_DIR").expect("OUT_DIR"));
    files.write_to(&out_dir).expect("write generated code");
    assert!(
        files.file("bench.rs").is_some(),
        "rust backend should emit bench.rs, got {:?}",
        files.names()
    );
}
