//! `argo-check`: the concurrency harness for the ARGO runtime.
//!
//! A deterministic schedule-permutation explorer ([`schedule`], a
//! mini-loom) used by this crate's test suite, which with `--features
//! check` also turns on the lock-order / double-lock sanitizer inside the
//! `parking_lot` shim (`tests/check.rs`). [`rules`] holds the hot-path
//! allocation and kernel-bypass spellings no compiler or clippy lint can
//! scope to a file list, and `tests/hot_paths.rs` runs them over the tree;
//! every other source rule is a compiler or clippy lint (`clippy.toml` and
//! the crate roots).

#![forbid(unsafe_code)]

pub mod rules;
pub mod schedule;

#[cfg(test)]
mod tests {
    use super::rules::{check_file, check_tree};
    use std::path::Path;

    #[test]
    fn seeded_violations_surface_with_file_and_line() {
        // Plant one violation of each rule next to the real tree and check
        // each is reported at its exact file:line (the result cache's key
        // clone too: no site is excused), and the real tree adds no finding.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut found = check_tree(&root).expect("the covered files read");
        found.extend(check_file(
            "crates/serve/src/session.rs",
            "fn f() {\n    let m: HashMap<u64, usize> = HashMap::new();\n    \
             let z = reference::matmul(&x, &w);\n    \
             let g = feats.gather(ids).data().to_vec();\n    \
             let key = req.seeds.clone();\n}\n",
        ));
        let rendered: Vec<String> = found.iter().map(|f| f.to_string()).collect();
        let path = "crates/serve/src/session.rs";
        assert_eq!(
            rendered,
            [
                format!(
                    "{path}:2: [sampler-scratch] `HashMap`: keep batch-lifetime state in the \
                     `SamplerScratch` arena"
                ),
                format!(
                    "{path}:3: [kernel-dispatch] `reference::`: route the kernel through \
                     `argo_tensor::DispatchPolicy`"
                ),
                format!(
                    "{path}:4: [feature-gather] `.gather(`: gather into a recycled buffer with \
                     `Features::gather_into`"
                ),
                format!(
                    "{path}:5: [sampler-scratch] `.clone()`: keep batch-lifetime state in the \
                     `SamplerScratch` arena"
                ),
            ]
        );
    }
}
