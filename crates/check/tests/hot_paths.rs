//! Runs `argo_check::rules` over the tree: the source rules no lint can
//! scope to a list of files.

use argo_check::rules::{check_tree, scan, RULES};
use std::path::Path;

#[test]
fn hot_paths_hold_no_allocation_or_kernel_bypass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let found = check_tree(&root).expect("the covered files read");
    let found: Vec<String> = found.iter().map(|f| f.to_string()).collect();
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn scan_reports_every_needle_and_skips_comments_and_the_test_tail() {
    let needles: Vec<&str> = RULES
        .iter()
        .flat_map(|r| r.needles.iter().copied())
        .collect();
    let mut src: String = needles.iter().map(|n| format!("x {n} y\n")).collect();
    src += "// HashMap .clone() reference:: .gather( in a comment\n";
    src += "let z = cross_reference::f(); feats.gather_into(ids, out);\n";
    src += "#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); f.gather(&ids); }\n}\n";
    let hits: Vec<(usize, &str)> = scan(&src, &needles).iter().map(|h| (h.0, h.2)).collect();
    let want: Vec<(usize, &str)> = (1..).zip(needles.iter().copied()).collect();
    assert_eq!(hits, want);
}
