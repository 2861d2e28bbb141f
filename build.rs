//! Build script: runs the template-driven IDL compiler over
//! `idl/media.idl`, `idl/catalog.idl` and `idl/shapes.idl` with the `rust` backend, proving
//! end-to-end that generated code compiles and runs (`src/lib.rs` and the
//! integration tests include the output from `OUT_DIR`).

use std::path::PathBuf;

fn main() {
    let out_dir = PathBuf::from(std::env::var("OUT_DIR").expect("OUT_DIR"));
    for module in ["media", "catalog", "shapes"] {
        println!("cargo:rerun-if-changed=idl/{module}.idl");
        let idl = std::fs::read_to_string(format!("idl/{module}.idl"))
            .unwrap_or_else(|e| panic!("read idl/{module}.idl: {e}"));
        let files = heidl_codegen::compile("rust", &idl, module)
            .unwrap_or_else(|e| panic!("heidlc failed on idl/{module}.idl: {e}"));
        files.write_to(&out_dir).expect("write generated code");
        assert!(
            files.file(&format!("{module}.rs")).is_some(),
            "rust backend should emit {module}.rs, got {:?}",
            files.names()
        );
    }
}
