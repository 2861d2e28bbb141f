//! The generated foreign-language mappings run in their own toolchains,
//! not only as text. Each test prints a skip line and passes when its
//! toolchain is missing.
//!
//! * The tcl ORB runtime and the tcl stubs generated from
//!   `idl/media.idl` load in `tclsh` with [incr Tcl].

use std::path::Path;
use std::process::Command;

/// Runs `script` in `tclsh`, or `None` when `tclsh` cannot be started.
fn tclsh(dir: &Path, script: &str) -> Option<std::process::Output> {
    let path = dir.join("script.tcl");
    std::fs::write(&path, script).unwrap();
    Command::new("tclsh").arg(&path).current_dir(dir).output().ok()
}

#[test]
fn tcl_orb_and_media_stubs_load() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let idl = std::fs::read_to_string(root.join("idl/media.idl")).unwrap();
    let files = heidl::codegen::compile("tcl", &idl, "media").unwrap();
    let dir = std::env::temp_dir().join(format!("heidl-tcl-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, content) in files.iter() {
        std::fs::write(dir.join(name), content).unwrap();
    }

    let probe = "puts [expr {[catch {package require Itcl}] ? {no} : {yes}}]";
    match tclsh(&dir, probe) {
        None => eprintln!("skipped: tclsh is not installed"),
        Some(out) if String::from_utf8_lossy(&out.stdout).trim() != "yes" => {
            eprintln!("skipped: tclsh has no [incr Tcl] (Itcl) package");
        }
        Some(_) => {
            // Declaration order: Player inherits Receiver.
            let script = "source orb_runtime.tcl\nsource Receiver.tcl\nsource Player.tcl\n\
                          source Library.tcl\nputs loaded\n";
            let out = tclsh(&dir, script).expect("tclsh ran the probe");
            let (stdout, stderr) =
                (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
            assert!(
                out.status.success() && stdout.trim() == "loaded",
                "the tcl ORB did not load: {stdout}{stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
