//! The source rules no compiler or clippy lint can scope to a list of files,
//! checked over each listed file's code up to its first `#[cfg(test)]`,
//! skipping `//` lines. `tests/hot_paths.rs` runs them over the tree.

use std::fmt;
use std::io;
use std::path::Path;

/// A rule: its name, the fix it asks for, its needles, and the files (or
/// whole `src` directories, their direct children) it covers.
#[derive(Debug)]
pub struct Rule {
    pub name: &'static str,
    pub fix: &'static str,
    pub needles: &'static [&'static str],
    pub paths: &'static [&'static str],
}

pub const RULES: &[Rule] = &[
    Rule {
        name: "sampler-scratch",
        fix: "keep batch-lifetime state in the `SamplerScratch` arena",
        needles: &["HashMap", "HashSet", ".clone()"],
        paths: &[
            "crates/sample/src/cache.rs",
            "crates/sample/src/cascade.rs",
            "crates/sample/src/neighbor.rs",
            "crates/sample/src/shadow.rs",
            "crates/sample/src/scratch.rs",
            "crates/sample/src/batch.rs",
            "crates/sample/src/view.rs",
            "crates/serve/src/session.rs",
            "crates/serve/src/batcher.rs",
        ],
    },
    Rule {
        name: "kernel-dispatch",
        fix: "route the kernel through `argo_tensor::DispatchPolicy`",
        needles: &["reference::"],
        paths: &["crates/nn/src", "crates/engine/src", "crates/serve/src"],
    },
    Rule {
        name: "feature-gather",
        fix: "gather into a recycled buffer with `Features::gather_into`",
        needles: &[".gather(", ".data().to_vec()"],
        paths: &[
            "crates/nn/src",
            "crates/sample/src",
            "crates/serve/src",
            "crates/engine/src",
        ],
    },
    Rule {
        name: "carried-transposes",
        fix: "gather over the transposes the batch's `Cascade` carries \
              (`Cascade::transpose_layers`, `aggregate_transposed_into`)",
        needles: &[
            "aggregate_transpose_into(",
            "aggregate_transpose(",
            "transpose_into(",
        ],
        paths: &["crates/nn/src", "crates/engine/src", "crates/serve/src"],
    },
    Rule {
        name: "carried-batch",
        fix: "run the batch in the arena it was sampled into, through its \
              `SampledBatchView` (`LoadedBatch::view`, `Gnn::train_step_prepared`)",
        needles: &[".to_owned()"],
        paths: &[
            "crates/sample/src/loader.rs",
            "crates/nn/src",
            "crates/engine/src",
            "crates/serve/src",
        ],
    },
];

/// One rule's hit on one line of a file.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static Rule,
    pub needle: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Finding {
            path,
            line,
            rule,
            needle,
            ..
        } = self;
        write!(f, "{path}:{line}: [{}] `{needle}`: {}", rule.name, rule.fix)
    }
}

/// Every `(line number, line, needle)` in the code of `src` before its first
/// `#[cfg(test)]`, skipping `//` lines: the first needle each line holds. A
/// needle that starts with an identifier character must not continue one
/// (`cross_reference::`).
pub fn scan<'a>(src: &'a str, needles: &[&'static str]) -> Vec<(usize, &'a str, &'static str)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let code = src
        .lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .enumerate();
    let hit = |line: &str, needle: &str| {
        let mut at = line.match_indices(needle).map(|(at, _)| at);
        at.any(|at| !needle.starts_with(ident) || !line[..at].ends_with(ident))
    };
    code.filter(|(_, l)| !l.trim_start().starts_with("//"))
        .filter_map(|(i, line)| {
            let needle = needles.iter().find(|n| hit(line, n))?;
            Some((i + 1, line, *needle))
        })
        .collect()
}

/// Whether the scope entry `scope` covers `path` (both relative to the
/// repository root, `/`-separated): the file itself, or a direct child of
/// the directory.
fn covers(scope: &str, path: &str) -> bool {
    path == scope
        || path
            .strip_prefix(scope)
            .and_then(|rest| rest.strip_prefix('/'))
            .is_some_and(|name| !name.contains('/'))
}

/// Every finding in the file at `path` (relative to the repository root)
/// whose source is `src`: one per line and rule.
pub fn check_file(path: &str, src: &str) -> Vec<Finding> {
    let mut found = Vec::new();
    for rule in RULES
        .iter()
        .filter(|r| r.paths.iter().any(|s| covers(s, path)))
    {
        for (line, _, needle) in scan(src, rule.needles) {
            found.push(Finding {
                path: path.to_owned(),
                line,
                rule,
                needle,
            });
        }
    }
    found.sort_by_key(|f| f.line);
    found
}

/// Every finding in the files the rules cover under the repository `root`.
pub fn check_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for scope in RULES.iter().flat_map(|r| r.paths.iter()) {
        let path = root.join(scope);
        if path.is_dir() {
            for entry in std::fs::read_dir(&path)? {
                files.push(format!("{scope}/{}", entry?.file_name().to_string_lossy()));
            }
        } else {
            files.push(scope.to_string());
        }
    }
    files.sort();
    files.dedup();
    let mut found = Vec::new();
    for file in files {
        found.extend(check_file(
            &file,
            &std::fs::read_to_string(root.join(&file))?,
        ));
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(line, rule)` of each finding in `src` at `path`.
    fn lint(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        check_file(path, src)
            .iter()
            .map(|f| (f.line, f.rule.name))
            .collect()
    }

    #[test]
    fn raw_kernel_call_in_model_code_is_flagged() {
        let d = lint(
            "crates/nn/src/x.rs",
            "fn f() { let z = reference::matmul(&x, &w); }\n",
        );
        assert_eq!(d, [(1, "kernel-dispatch")]);
        let d = lint(
            "crates/engine/src/x.rs",
            "fn f() { let a = argo_tensor::reference::spmm_transpose(&adj, &g); }\n",
        );
        assert_eq!(d, [(1, "kernel-dispatch")]);
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
        // Nor does a comment, a dispatch-policy call, or an identifier that
        // merely ends in the word.
        assert!(lint("crates/nn/src/x.rs", &format!("// {call}")).is_empty());
        let src = "fn f() { let z = dispatch.gemm(&x, &w, pool); cross_reference::f(); }\n";
        assert!(lint("crates/nn/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_container_in_sampler_hot_path_is_flagged() {
        let d = lint(
            "crates/sample/src/neighbor.rs",
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        assert_eq!(
            d,
            [(1, "sampler-scratch")],
            "one finding per offending line"
        );
        let d = lint(
            "crates/sample/src/scratch.rs",
            "fn f() { let s = HashSet::new(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
        let d = lint(
            "crates/sample/src/shadow.rs",
            "fn f() { let ids = nodes.clone(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
        let d = lint(
            "crates/sample/src/cascade.rs",
            "fn f() { let rows = self.rows.clone(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
    }

    #[test]
    fn a_transpose_built_by_the_model_engine_or_session_is_flagged() {
        for (path, call) in [
            ("crates/nn/src/model.rs", "adj.transpose_into(&mut t);"),
            (
                "crates/nn/src/x.rs",
                "d.aggregate_transpose_into(adj, &g, None, &mut o);",
            ),
            (
                "crates/engine/src/engine.rs",
                "d.aggregate_transpose(adj, &g, None);",
            ),
            ("crates/serve/src/session.rs", "a.transpose_into(&mut t);"),
        ] {
            let d = lint(path, &format!("fn f() {{ {call} }}\n"));
            assert_eq!(d, [(1, "carried-transposes")], "{path}: {call}");
        }
        // The gather over a carried transpose, the builder's own crate and
        // test modules pass.
        let src = "fn f() { d.aggregate_transposed_into(t, &g, None, &mut o); }\n";
        assert!(lint("crates/nn/src/model.rs", src).is_empty());
        let src = "fn f() { adj.transpose_into(&mut self.transposes[l]); }\n";
        assert!(lint("crates/sample/src/cascade.rs", src).is_empty());
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { d.aggregate_transpose(n, &g, None); }\n}\n";
        assert!(lint("crates/nn/src/model.rs", src).is_empty());
    }

    #[test]
    fn a_batch_copied_out_of_its_arena_by_the_loader_model_engine_or_session_is_flagged() {
        for (path, call) in [
            (
                "crates/sample/src/loader.rs",
                "let batch = view.to_owned();",
            ),
            ("crates/nn/src/model.rs", "self.step(&batch.to_owned());"),
            ("crates/nn/src/x.rs", "let b = view.to_owned();"),
            (
                "crates/engine/src/engine.rs",
                "let batch = loaded.view().to_owned();",
            ),
            (
                "crates/serve/src/session.rs",
                "cache.insert(view.to_owned());",
            ),
        ] {
            let d = lint(path, &format!("fn f() {{ {call} }}\n"));
            assert_eq!(d, [(1, "carried-batch")], "{path}: {call}");
        }
        // The copy's definition, the sampler's owned wrapper, other loader-less
        // crates and test modules pass.
        let src = "fn f() { SampledBatch::Blocks(mb.to_owned()) }\n";
        assert!(lint("crates/sample/src/view.rs", src).is_empty());
        let src = "fn f() { self.sample_into(graph, seeds, run).to_owned() }\n";
        assert!(lint("crates/sample/src/lib.rs", src).is_empty());
        let src = "fn f() { let batch = view.to_owned(); }\n";
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let b = view.to_owned(); }\n}\n";
        assert!(lint("crates/engine/src/engine.rs", src).is_empty());
        assert!(lint("crates/nn/tests/x.rs", "fn f() { view.to_owned(); }\n").is_empty());
    }

    #[test]
    fn feature_cache_is_scratch_checked() {
        // The slab cache indexes dense node ids directly: no hash map, no
        // per-row clone.
        let d = lint(
            "crates/sample/src/cache.rs",
            "fn f() { let m: HashMap<u32, usize> = HashMap::new(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
        let d = lint(
            "crates/sample/src/cache.rs",
            "fn f() { let r = row.clone(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
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
            assert_eq!(d, [(1, "feature-gather")], "{path}");
        }
        // The double copy is one finding per line, not two.
        let d = lint(
            "crates/serve/src/x.rs",
            "fn f() { let rows = feats.gather(ids).data().to_vec(); }\n",
        );
        assert_eq!(d, [(1, "feature-gather")]);
        let d = lint(
            "crates/nn/src/x.rs",
            "fn f() { Matrix::from_vec(n, d, g.data().to_vec()) }\n",
        );
        assert_eq!(d, [(1, "feature-gather")]);
    }

    #[test]
    fn feature_gather_passes_the_into_forms_tests_and_other_crates() {
        let src = "fn f() { feats.gather_into(ids, out); cache.gather_rows_into(f, ids, out); }\n";
        assert!(lint("crates/engine/src/x.rs", src).is_empty());
        // The wrappers' own definitions carry no leading dot.
        let src = "pub fn gather(&self, feats: &Features, ids: &[NodeId]) -> Features {}\n";
        assert!(lint("crates/sample/src/cache.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let g = f.gather(&ids).data().to_vec(); }\n}\n";
        assert!(lint("crates/nn/src/x.rs", src).is_empty());
        assert!(lint("crates/nn/tests/x.rs", "fn f() { feats.gather(ids); }\n").is_empty());
        // The graph crate defines the wrapper; bench code may call it.
        let src = "fn f() { self.gather(ids); }\n";
        assert!(lint("crates/graph/src/features.rs", src).is_empty());
        let src = "fn f() { d.features.gather(ids); }\n";
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn sampler_scratch_exempts_tests_and_cold_files() {
        // The loader clones Arc handles into worker threads.
        let src = "fn f() { let g = graph.clone(); }\n";
        assert!(lint("crates/sample/src/loader.rs", src).is_empty());
        // Test modules inside hot files may clone for reference checks.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let ids = b.src_nodes.clone(); }\n}\n";
        assert!(lint("crates/sample/src/neighbor.rs", src).is_empty());
    }

    #[test]
    fn serve_is_dispatch_only_and_scratch_checked() {
        let d = lint(
            "crates/serve/src/x.rs",
            "fn f() { let z = reference::matmul(&x, &w); }\n",
        );
        assert_eq!(d, [(1, "kernel-dispatch")]);
        let d = lint(
            "crates/serve/src/session.rs",
            "fn f() { let s = seeds.clone(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
        let d = lint(
            "crates/serve/src/batcher.rs",
            "fn f() { let m: HashMap<u64, u64> = HashMap::new(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
        // The result cache owns a long-lived map keyed by seed lists.
        let src = "fn f() { let m: HashMap<u64, usize> = HashMap::new(); }\n";
        assert!(lint("crates/serve/src/result_cache.rs", src).is_empty());
        // No site is excused: the miss path moves its seeds into the cache.
        let src = "fn f() { let key = req.seeds.clone(); }\n";
        assert_eq!(
            lint("crates/serve/src/session.rs", src),
            [(1, "sampler-scratch")]
        );
    }

    #[test]
    fn batch_and_view_files_are_scratch_checked() {
        // Assembly moved into the arena: the batch/view files are hot.
        let d = lint(
            "crates/sample/src/batch.rs",
            "fn f() { let ids = nodes.clone(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
        let d = lint(
            "crates/sample/src/view.rs",
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        assert_eq!(d, [(1, "sampler-scratch")]);
    }
}
