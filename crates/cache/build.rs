//! Exports `BPFREE_CODE_FINGERPRINT`: a 64-bit FNV-1a hash of the
//! relative path and bytes of every file under `src/` of `bpfree-engine`
//! and each package it depends on, and of the suite's Cmm programs. It
//! covers everything a cached artifact is built from: the code, the
//! sources (`include_str!`d into `bpfree-suite`) and the datasets
//! (generated by `bpfree-suite` and the rand shim). Every suite image is
//! stamped with it, so after an edit to any of those files no image
//! written before the edit mounts.

use std::path::{Path, PathBuf};

/// The `src/` trees of `bpfree-engine`'s dependency closure and the
/// suite's programs, relative to the workspace root.
const TREES: [&str; 11] = [
    "crates/ir/src",
    "crates/cfg/src",
    "crates/lang/src",
    "crates/sim/src",
    "crates/par/src",
    "crates/core/src",
    "crates/suite/src",
    "crates/suite/programs",
    "crates/cache/src",
    "crates/engine/src",
    "shims/rand/src",
];

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("../..");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for tree in TREES {
        let dir = root.join(tree);
        println!("cargo:rerun-if-changed={}", dir.display());
        let mut files = Vec::new();
        collect(&dir, &mut files);
        files.sort();
        for file in files {
            let rel = file.strip_prefix(&root).expect("under the root");
            let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            let bytes = std::fs::read(&file)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
            write(rel.join("/").as_bytes());
            write(&[0xff]);
            write(&(bytes.len() as u64).to_le_bytes());
            write(&bytes);
        }
    }
    println!("cargo:rustc-env=BPFREE_CODE_FINGERPRINT={hash:016x}");
}

/// Every file under `dir`, recursively.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}
