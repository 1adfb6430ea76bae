//! Per-file lint rules over the scanned source channels.
//!
//! Each rule reports `file:line` diagnostics; deliberate exceptions are
//! routed through the embedded [`crate::allowlist`], never inline `#[allow]`
//! attributes, so every exemption carries a reviewed justification.

use crate::allowlist::AllowTracker;
use crate::source::SourceFile;
use crate::Diagnostic;

/// Crates whose non-test code must not contain panicking constructs: these
/// run inside the training loop or on pool workers, where a panic tears
/// down an epoch (or the whole run) instead of surfacing an `argo_core::Error`.
const NO_PANIC_CRATES: &[&str] = &[
    "crates/rt/",
    "crates/sample/",
    "crates/engine/",
    "crates/tensor/",
    "crates/cli/",
    "crates/serve/",
];

/// Files allowed to read the wall clock: the telemetry handle owns the run
/// clock and the span rings tick on it; everything else is either
/// deterministic (modeled platform, replay) or explicitly allowlisted as a
/// measured path.
const INSTANT_ALLOWED_FILES: &[&str] = &[
    "crates/rt/src/telemetry.rs",
    "crates/rt/src/spans.rs",
    // The serving wall clock: `WallClock` is the one measured `Clock`
    // implementation; every other serving path takes timestamps through the
    // `Clock` trait (deterministic under `ManualClock`).
    "crates/serve/src/clock.rs",
];

/// The naive oracle kernels (`argo_tensor::reference`): what tests and
/// benches compare the two production tiers against. Model, engine and
/// serving code must not call them — every matmul/SpMM there goes through
/// `argo_tensor::DispatchPolicy`, which is the only way to reach a tier (the
/// matrix types carry no kernel methods), so this one path is the whole
/// bypass surface.
const REFERENCE_KERNELS: &str = "reference::";

/// Crates whose non-test code must route matmul/SpMM through the dispatch
/// policy rather than the raw kernels. `crates/serve/` joined in PR 8: the
/// serving forward pass reuses the training model, so it must inherit the
/// same serial-vs-pool routing rather than pinning kernels by hand.
const DISPATCH_ONLY_CRATES: &[&str] = &["crates/nn/", "crates/engine/", "crates/serve/"];

/// Sampler hot-path files that must stay on the scratch arena
/// (`crates/sample/src/scratch.rs`): per-batch `HashMap`/`HashSet`
/// relabeling or `.clone()` of node-id vectors is exactly the allocation
/// churn the scratch rewrite removed — the epoch-stamped dense dedup table
/// and the recycled pick buffers replace them. `loader.rs` (Arc handle
/// clones) is deliberately out of scope.
const SAMPLER_HOT_FILES: &[&str] = &[
    // The cross-batch feature cache runs once per batch on the loader
    // thread: its residency index is a direct-mapped table and its rows one
    // slab, so a hash map or a per-row clone here is the per-batch host
    // overhead the slab layout removed.
    "crates/sample/src/cache.rs",
    "crates/sample/src/neighbor.rs",
    "crates/sample/src/shadow.rs",
    "crates/sample/src/scratch.rs",
    // Batch assembly moved into the arena (`sample_into`): the batch types
    // and the borrowed views over the arena are now hot-path assembly code
    // too.
    "crates/sample/src/batch.rs",
    "crates/sample/src/view.rs",
    // The serving request path runs the same sampler per query: per-request
    // hash containers or seed-vector clones would charge the allocation
    // churn to every single query's latency. `result_cache.rs` (long-lived
    // map keyed by seed lists, which are not dense) is deliberately out of
    // scope.
    "crates/serve/src/session.rs",
    "crates/serve/src/batcher.rs",
];

/// Allocation-churn constructs forbidden in [`SAMPLER_HOT_FILES`].
const SCRATCH_NEEDLES: &[&str] = &["HashMap", "HashSet", ".clone()"];

/// Crates on the feature path — feature table → cache slab → input buffer →
/// step — whose non-test code must gather with the `_into` forms.
const FEATURE_PATH_CRATES: &[&str] = &[
    "crates/nn/",
    "crates/sample/",
    "crates/serve/",
    "crates/engine/",
];

/// The allocating feature-path spellings: the by-value `Features::gather`
/// wrapper, and the `.data().to_vec()` second copy that used to follow it.
const FEATURE_GATHER_NEEDLES: &[&str] = &[".gather(", ".data().to_vec()"];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
/// Generous enough for a multi-line justification, tight enough that the
/// comment stays adjacent to the block it justifies.
const SAFETY_LOOKBACK: usize = 8;

/// The one file allowed to contain raw `core::arch` SIMD intrinsics. All
/// explicit vectorization funnels through this module so the runtime
/// feature detection, the scalar fallback and the numerical contract live
/// in one reviewed place; intrinsics sprinkled elsewhere would bypass all
/// three.
const SIMD_FILE: &str = "crates/tensor/src/simd.rs";

/// Tokens that mark raw SIMD usage: the arch module path, intrinsic calls
/// (`_mm256_fmadd_ps`, …) and vector register types (`__m256`, …).
const SIMD_NEEDLES: &[&str] = &["core::arch", "_mm", "__m"];

/// Inside [`SIMD_FILE`], a `SAFETY:` justification must name the runtime
/// feature check that guards the block — one of these, case-insensitive —
/// so the comment states *which* detection makes the intrinsics sound,
/// not just that they are.
const SIMD_FEATURE_MARKS: &[&str] = &["avx2", "is_x86_feature_detected"];

/// True for files that are test/bench/example code wholesale.
pub fn is_test_path(path: &str) -> bool {
    path.contains("/tests/")
        || path.starts_with("tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

fn in_no_panic_scope(path: &str) -> bool {
    NO_PANIC_CRATES.iter().any(|c| path.starts_with(c))
}

/// Whether `code` contains `needle` with no identifier character directly
/// before it (so `panic!` does not match `dont_panic!`). Needles that start
/// with a non-identifier char (`.unwrap()`) are their own boundary.
fn contains_token(code: &str, needle: &str) -> bool {
    let ident_start = needle
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let boundary = !ident_start
            || code[..at]
                .chars()
                .next_back()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Runs every per-file rule on one scanned file.
pub fn check_file(file: &SourceFile, allow: &mut AllowTracker, out: &mut Vec<Diagnostic>) {
    let test_file = is_test_path(&file.path);
    check_unsafe_safety(file, out);
    if !test_file {
        check_no_panic(file, allow, out);
        check_no_instant(file, allow, out);
        check_kernel_dispatch(file, allow, out);
        check_sampler_scratch(file, allow, out);
        check_feature_gather(file, allow, out);
        check_simd_isolation(file, allow, out);
    }
}

/// Rule `simd-isolation`: raw `core::arch` intrinsics live only in
/// [`SIMD_FILE`] — everywhere else they would bypass the runtime feature
/// dispatch, the scalar fallback and the documented numerical contract.
/// Inside that file, every `unsafe` must carry a `SAFETY:` comment naming
/// the runtime feature check guarding it (see [`SIMD_FEATURE_MARKS`]), so
/// a reader can tell which detection makes the raw-pointer loads and
/// feature-gated calls sound.
fn check_simd_isolation(file: &SourceFile, allow: &mut AllowTracker, out: &mut Vec<Diagnostic>) {
    if !file.path.starts_with("crates/") {
        return;
    }
    if file.path.ends_with(SIMD_FILE) {
        for (n, line) in file.numbered() {
            if !contains_token(&line.code, "unsafe") {
                continue;
            }
            let start = n.saturating_sub(SAFETY_LOOKBACK + 1);
            let window = &file.lines[start..n];
            let named = window.iter().any(|l| l.comment.contains("SAFETY:"))
                && window.iter().any(|l| {
                    let c = l.comment.to_lowercase();
                    SIMD_FEATURE_MARKS.iter().any(|m| c.contains(m))
                });
            if !named && !allow.permits("simd-isolation", &file.path, &line.raw) {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: n,
                    rule: "simd-isolation",
                    message: format!(
                        "`unsafe` in the SIMD module whose `SAFETY:` comment (within \
                         {SAFETY_LOOKBACK} lines) does not name the runtime feature check \
                         guarding it; say which detection (e.g. `available()` = AVX2+FMA) \
                         makes this block sound"
                    ),
                });
            }
        }
        return;
    }
    for (n, line) in file.numbered() {
        if line.test {
            continue;
        }
        for needle in SIMD_NEEDLES {
            if contains_token(&line.code, needle)
                && !allow.permits("simd-isolation", &file.path, &line.raw)
            {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: n,
                    rule: "simd-isolation",
                    message: format!(
                        "raw SIMD token `{needle}` outside `{SIMD_FILE}`; explicit \
                         vectorization must go through the tensor SIMD module so runtime \
                         dispatch, the scalar fallback and the numerical contract stay \
                         centralized, or add an allowlist entry with a justification"
                    ),
                });
                break;
            }
        }
    }
}

/// Rule `unsafe-safety`: every `unsafe` token (block, fn, impl) must have a
/// `SAFETY:` comment — or a `# Safety` doc section for `unsafe fn` — on the
/// same line or within [`SAFETY_LOOKBACK`] lines above. Applies to test
/// code too: an unexplained `unsafe` is no better for living in a test.
fn check_unsafe_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (n, line) in file.numbered() {
        if !contains_token(&line.code, "unsafe") {
            continue;
        }
        let start = n.saturating_sub(SAFETY_LOOKBACK + 1);
        let justified = file.lines[start..n]
            .iter()
            .any(|l| l.comment.contains("SAFETY:") || l.comment.contains("# Safety"));
        if !justified {
            out.push(Diagnostic {
                path: file.path.clone(),
                line: n,
                rule: "unsafe-safety",
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_LOOKBACK} lines"
                ),
            });
        }
    }
}

/// Rule `no-panic`: no `.unwrap()` / `.expect(` / `panic!` / `unreachable!`
/// / `todo!` / `unimplemented!` in non-test code of the hot-path crates.
fn check_no_panic(file: &SourceFile, allow: &mut AllowTracker, out: &mut Vec<Diagnostic>) {
    if !in_no_panic_scope(&file.path) {
        return;
    }
    const NEEDLES: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    for (n, line) in file.numbered() {
        if line.test {
            continue;
        }
        for needle in NEEDLES {
            if contains_token(&line.code, needle)
                && !allow.permits("no-panic", &file.path, &line.raw)
            {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: n,
                    rule: "no-panic",
                    message: format!(
                        "`{needle}` in hot-path crate; return `argo_core::Error` \
                         or add an allowlist entry with a justification"
                    ),
                });
            }
        }
    }
}

/// Rule `no-instant`: `Instant::now` only in the telemetry/spans modules (or
/// allowlisted measured paths). Keeps the modeled platform deterministic.
fn check_no_instant(file: &SourceFile, allow: &mut AllowTracker, out: &mut Vec<Diagnostic>) {
    if !file.path.starts_with("crates/") || file.path.starts_with("crates/bench/") {
        return;
    }
    if INSTANT_ALLOWED_FILES.iter().any(|f| file.path.ends_with(f)) {
        return;
    }
    for (n, line) in file.numbered() {
        if line.test || !line.code.contains("Instant::now") {
            continue;
        }
        if allow.permits("no-instant", &file.path, &line.raw) {
            continue;
        }
        out.push(Diagnostic {
            path: file.path.clone(),
            line: n,
            rule: "no-instant",
            message: "`Instant::now` outside rt::telemetry/rt::spans; modeled paths must be \
                      deterministic — time hot-loop work with a span or allowlist a \
                      measured path"
                .to_string(),
        });
    }
}

/// Rule `kernel-dispatch`: model/engine non-test code must go through
/// `DispatchPolicy` (`gemm`, `aggregate`, `grad_weights`, …), never the
/// naive oracles in `argo_tensor::reference`.
fn check_kernel_dispatch(file: &SourceFile, allow: &mut AllowTracker, out: &mut Vec<Diagnostic>) {
    if !DISPATCH_ONLY_CRATES
        .iter()
        .any(|c| file.path.starts_with(c))
    {
        return;
    }
    for (n, line) in file.numbered() {
        if line.test
            || !contains_token(&line.code, REFERENCE_KERNELS)
            || allow.permits("kernel-dispatch", &file.path, &line.raw)
        {
            continue;
        }
        out.push(Diagnostic {
            path: file.path.clone(),
            line: n,
            rule: "kernel-dispatch",
            message: format!(
                "`{REFERENCE_KERNELS}` oracle kernel in model/engine code; route it through \
                 `argo_tensor::DispatchPolicy` so tier and serial-vs-pool selection stay \
                 centralized, or add an allowlist entry with a justification"
            ),
        });
    }
}

/// Rule `sampler-scratch`: sampler hot-path files must not reintroduce
/// per-batch hash containers or node-id vector clones — batch-lifetime state
/// belongs in `SamplerScratch` so steady-state sampling stays allocation-free
/// (pinned by `loader.rs::steady_state_sampling_is_allocation_free`).
fn check_sampler_scratch(file: &SourceFile, allow: &mut AllowTracker, out: &mut Vec<Diagnostic>) {
    if !SAMPLER_HOT_FILES.iter().any(|f| file.path.ends_with(f)) {
        return;
    }
    for (n, line) in file.numbered() {
        if line.test {
            continue;
        }
        for needle in SCRATCH_NEEDLES {
            if contains_token(&line.code, needle)
                && !allow.permits("sampler-scratch", &file.path, &line.raw)
            {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: n,
                    rule: "sampler-scratch",
                    message: format!(
                        "`{needle}` in sampler hot path; use the `SamplerScratch` arena \
                         (epoch-stamped dedup table, recycled buffers) so steady-state \
                         sampling stays allocation-free, or add an allowlist entry with \
                         a justification"
                    ),
                });
            }
        }
    }
}

/// Rule `feature-gather`: non-test code on the feature path gathers rows
/// once, into a buffer it recycles (`Features::gather_into`,
/// `FeatureCache::gather_rows_into`). The by-value wrappers allocate a fresh
/// matrix per call, and copying it again with `.data().to_vec()` doubles the
/// traffic of the one phase the paper identifies as memory-bound; they remain
/// for tests, benches and callers that keep the rows.
fn check_feature_gather(file: &SourceFile, allow: &mut AllowTracker, out: &mut Vec<Diagnostic>) {
    if !FEATURE_PATH_CRATES.iter().any(|c| file.path.starts_with(c)) {
        return;
    }
    for (n, line) in file.numbered() {
        if line.test {
            continue;
        }
        for needle in FEATURE_GATHER_NEEDLES {
            if contains_token(&line.code, needle)
                && !allow.permits("feature-gather", &file.path, &line.raw)
            {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: n,
                    rule: "feature-gather",
                    message: format!(
                        "`{needle}` on the feature path; gather once into a recycled buffer \
                         with `Features::gather_into` / `FeatureCache::gather_rows_into` \
                         instead of allocating (and re-copying) a fresh matrix per batch, or \
                         add an allowlist entry with a justification"
                    ),
                });
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::scan(path, src);
        let mut allow = AllowTracker::new();
        let mut out = Vec::new();
        check_file(&file, &mut allow, &mut out);
        out
    }

    #[test]
    fn uncommented_unsafe_is_flagged() {
        let d = lint("crates/rt/src/x.rs", "fn f() {\n    unsafe { g(); }\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unsafe-safety");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn safety_comment_within_lookback_passes() {
        let src = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g(); }\n}\n";
        assert!(lint("crates/rt/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_doc_section_covers_unsafe_fn() {
        let src = "/// # Safety\n/// Caller must pass a valid pointer.\npub unsafe fn f() {}\n";
        assert!(lint("shims/libc/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_hot_path_is_flagged() {
        let d = lint("crates/engine/src/x.rs", "fn f() { v.last().unwrap(); }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-panic");
    }

    #[test]
    fn unwrap_in_tests_and_cold_crates_passes() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { v.last().unwrap(); }\n}\n";
        assert!(lint("crates/engine/src/x.rs", src).is_empty());
        assert!(lint("crates/platform/src/x.rs", "fn f() { v.unwrap(); }\n").is_empty());
        assert!(lint("crates/engine/tests/x.rs", "fn f() { v.unwrap(); }\n").is_empty());
    }

    #[test]
    fn unwrap_in_string_literal_passes() {
        let src = "fn f() { log(\"never .unwrap() here\"); }\n";
        assert!(lint("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn allowlisted_expect_passes_and_panic_needles_match() {
        let src = "fn f() { input.expect(\"the loader spec carries the feature table\"); }\n";
        assert!(lint("crates/engine/src/engine.rs", src).is_empty());
        let d = lint("crates/rt/src/x.rs", "fn f() { unreachable!() }\n");
        assert_eq!(d.len(), 1);
        // `dont_panic!` must not match `panic!`.
        assert!(lint("crates/rt/src/x.rs", "fn f() { dont_panic!() }\n").is_empty());
    }

    #[test]
    fn instant_flagged_outside_telemetry_and_spans() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let d = lint("crates/platform/src/perf.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-instant");
        assert!(lint("crates/rt/src/telemetry.rs", src).is_empty());
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_kernel_call_in_model_code_is_flagged() {
        let d = lint(
            "crates/nn/src/x.rs",
            "fn f() { let z = reference::matmul(&x, &w); }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "kernel-dispatch");
        let d = lint(
            "crates/engine/src/x.rs",
            "fn f() { let a = argo_tensor::reference::spmm_transpose(&adj, &g); }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "kernel-dispatch");
    }

    #[test]
    fn raw_kernel_call_outside_scope_or_in_tests_passes() {
        let call = "fn f() { reference::matmul(&x, &w); }\n";
        // The tensor crate itself defines the oracles and tests against them.
        assert!(lint("crates/tensor/src/x.rs", call).is_empty());
        // Test modules may call them as references.
        let src = format!("#[cfg(test)]\nmod tests {{\n    {call}}}\n");
        assert!(lint("crates/nn/src/x.rs", &src).is_empty());
        assert!(lint("crates/nn/tests/x.rs", call).is_empty());
        // Dispatch-policy calls do not match, nor does an identifier that
        // merely ends in the word.
        let src = "fn f() { let z = dispatch.gemm(&x, &w, pool); cross_reference::f(); }\n";
        assert!(lint("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_container_in_sampler_hot_path_is_flagged() {
        let d = lint(
            "crates/sample/src/neighbor.rs",
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        assert_eq!(d.len(), 1, "one diagnostic per offending line");
        assert_eq!(d[0].rule, "sampler-scratch");
        let d = lint(
            "crates/sample/src/scratch.rs",
            "fn f() { let s = HashSet::new(); }\n",
        );
        assert_eq!(d.len(), 1);
        let d = lint(
            "crates/sample/src/shadow.rs",
            "fn f() { let ids = nodes.clone(); }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "sampler-scratch");
    }

    #[test]
    fn feature_cache_is_scratch_checked() {
        // The slab cache indexes dense node ids directly: no hash map, no
        // per-row clone.
        let d = lint(
            "crates/sample/src/cache.rs",
            "fn f() { let m: HashMap<u32, usize> = HashMap::new(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "sampler-scratch");
        let d = lint(
            "crates/sample/src/cache.rs",
            "fn f() { let r = row.clone(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn allocating_gather_on_the_feature_path_is_flagged() {
        for path in [
            "crates/nn/src/x.rs",
            "crates/sample/src/x.rs",
            "crates/serve/src/x.rs",
            "crates/engine/src/x.rs",
        ] {
            let d = lint(path, "fn f() { let g = feats.gather(ids); }\n");
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, "feature-gather");
        }
        // The double copy is one diagnostic per line, not two.
        let d = lint(
            "crates/serve/src/x.rs",
            "fn f() { let rows = feats.gather(ids).data().to_vec(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        let d = lint(
            "crates/nn/src/x.rs",
            "fn f() { Matrix::from_vec(n, d, g.data().to_vec()) }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "feature-gather");
    }

    #[test]
    fn feature_gather_passes_the_into_forms_tests_and_other_crates() {
        let src = "fn f() { feats.gather_into(ids, out); cache.gather_rows_into(f, ids, out); }\n";
        assert!(lint("crates/engine/src/x.rs", src).is_empty());
        // The wrappers' own definitions carry no leading dot.
        assert!(lint(
            "crates/sample/src/cache.rs",
            "pub fn gather(&self, feats: &Features, ids: &[NodeId]) -> Features {}\n"
        )
        .is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let g = f.gather(&ids).data().to_vec(); }\n}\n";
        assert!(lint("crates/nn/src/x.rs", src).is_empty());
        assert!(lint("crates/nn/tests/x.rs", "fn f() { feats.gather(ids); }\n").is_empty());
        // The graph crate defines the wrapper; bench code may call it.
        assert!(lint(
            "crates/graph/src/features.rs",
            "fn f() { self.gather(ids); }\n"
        )
        .is_empty());
        assert!(lint(
            "crates/bench/src/lib.rs",
            "fn f() { d.features.gather(ids); }\n"
        )
        .is_empty());
    }

    #[test]
    fn sampler_scratch_exempts_tests_and_cold_files() {
        // The loader clones Arc handles into worker threads.
        assert!(lint(
            "crates/sample/src/loader.rs",
            "fn f() { let g = graph.clone(); }\n"
        )
        .is_empty());
        // Test modules inside hot files may clone for reference checks.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let ids = b.src_nodes.clone(); }\n}\n";
        assert!(lint("crates/sample/src/neighbor.rs", src).is_empty());
    }

    #[test]
    fn serve_is_dispatch_only_and_scratch_checked() {
        // PR 8 extended both rules to the serving pipeline.
        let d = lint(
            "crates/serve/src/x.rs",
            "fn f() { let z = reference::matmul(&x, &w); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "kernel-dispatch");
        let d = lint(
            "crates/serve/src/session.rs",
            "fn f() { let s = seeds.clone(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "sampler-scratch");
        let d = lint(
            "crates/serve/src/batcher.rs",
            "fn f() { let m: HashMap<u64, u64> = HashMap::new(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "sampler-scratch");
        // The result cache owns a long-lived map keyed by seed lists.
        assert!(lint(
            "crates/serve/src/result_cache.rs",
            "fn f() { let m: HashMap<u64, usize> = HashMap::new(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn batch_and_view_files_are_scratch_checked() {
        // Assembly moved into the arena: the batch/view files are hot now.
        let d = lint(
            "crates/sample/src/batch.rs",
            "fn f() { let ids = nodes.clone(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "sampler-scratch");
        let d = lint(
            "crates/sample/src/view.rs",
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "sampler-scratch");
    }

    #[test]
    fn raw_intrinsics_outside_the_simd_module_are_flagged() {
        let d = lint(
            "crates/tensor/src/kernels.rs",
            "fn f() { let v = _mm256_add_ps(a, b); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "simd-isolation");
        let d = lint("crates/nn/src/x.rs", "use core::arch::x86_64::*;\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "simd-isolation");
        let d = lint("crates/rt/src/x.rs", "fn f(a: __m256) -> __m256 { a }\n");
        assert_eq!(d.len(), 1, "one diagnostic per line: {d:?}");
    }

    #[test]
    fn simd_module_tests_and_foreign_paths_may_use_intrinsics() {
        // The SIMD module itself is the sanctioned home.
        assert!(lint(
            "crates/tensor/src/simd.rs",
            "use core::arch::x86_64::*;\nfn f(a: __m256) {}\n"
        )
        .is_empty());
        // Test modules and non-crate paths are out of scope.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { _mm256_setzero_ps(); }\n}\n";
        assert!(lint("crates/tensor/src/kernels.rs", src).is_empty());
        assert!(lint("shims/x/src/lib.rs", "fn f() { _mm256_setzero_ps(); }\n").is_empty());
        // Ordinary identifiers that merely end in the needle don't match.
        assert!(lint("crates/rt/src/x.rs", "fn f() { let comm_mm = 1; }\n").is_empty());
    }

    #[test]
    fn simd_unsafe_must_name_the_feature_check() {
        // SAFETY present but silent about the runtime feature check: the
        // generic unsafe-safety rule passes, simd-isolation flags it.
        let src = "fn f() {\n\
                   \x20   // SAFETY: pointers are in bounds.\n\
                   \x20   unsafe { g(); }\n\
                   }\n";
        let d = lint("crates/tensor/src/simd.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "simd-isolation");
        assert_eq!(d[0].line, 3);
        // Naming the guarding detection satisfies it.
        let src = "fn f() {\n\
                   \x20   // SAFETY: in bounds, and available() confirmed AVX2+FMA.\n\
                   \x20   unsafe { g(); }\n\
                   }\n";
        assert!(lint("crates/tensor/src/simd.rs", src).is_empty());
        // `is_x86_feature_detected` in the comment works too.
        let src = "fn f() {\n\
                   \x20   // SAFETY: guarded by is_x86_feature_detected above.\n\
                   \x20   unsafe { g(); }\n\
                   }\n";
        assert!(lint("crates/tensor/src/simd.rs", src).is_empty());
    }

    #[test]
    fn spans_module_may_read_the_clock() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(lint("crates/rt/src/spans.rs", src).is_empty());
    }
}
