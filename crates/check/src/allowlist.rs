//! The embedded allowlist: every deliberate exception to a lint rule lives
//! here, next to a written justification. An entry that stops matching
//! anything is itself a lint error ("stale allowlist entry"), so the list
//! can only shrink or be consciously edited — it cannot silently rot.

use crate::Diagnostic;

/// One sanctioned exception to a rule.
pub struct AllowEntry {
    /// Rule id this entry applies to (e.g. `no-panic`).
    pub rule: &'static str,
    /// Repo-relative path suffix of the file (matched with `ends_with`).
    pub path: &'static str,
    /// Substring of the *raw* source line identifying the site. Raw text is
    /// used so needles can quote string contents (`.expect("spawn sampler")`)
    /// that the code channel blanks out.
    pub needle: &'static str,
    /// Why this site is exempt. Shown nowhere, but reviewed with the diff.
    pub why: &'static str,
}

/// The exceptions. Keep sorted by (rule, path).
pub const ALLOWLIST: &[AllowEntry] = &[
    // ---- no-instant: legitimately *measured* paths. The rule exists so
    // modeled/deterministic paths (crates/platform, replay) never read the
    // wall clock; measured paths are the clock's raison d'être. -------------
    AllowEntry {
        rule: "no-instant",
        path: "crates/engine/src/engine.rs",
        needle: "let start = Instant::now()",
        why: "measured epoch wall-time; this IS the measurement the tuner consumes",
    },
    AllowEntry {
        rule: "no-instant",
        path: "crates/engine/src/engine.rs",
        needle: "let sync_start = Instant::now()",
        why: "EpochStats::sync_time is a result the tuner reads with telemetry off; the \
              Sync span is recorded from this same clock pair",
    },
    AllowEntry {
        rule: "no-instant",
        path: "crates/rt/src/events.rs",
        needle: "origin: std::time::Instant::now()",
        why: "RunLogger event timestamps are wall-clock by design (JSONL `t` field)",
    },
    AllowEntry {
        rule: "no-instant",
        path: "crates/tune/src/online.rs",
        needle: "Instant::now()",
        why: "suggest/observe overhead metrics (Table 5 reproduction)",
    },
    // ---- no-panic: sites whose invariant is established immediately
    // before, where returning an Error would claim a failure mode that
    // cannot happen. ------------------------------------------------------
    AllowEntry {
        rule: "no-panic",
        path: "crates/engine/src/engine.rs",
        needle: ".expect(\"configuration exceeds engine cores\")",
        why: "Config::clamp_to above bounds the request to the pool size",
    },
    AllowEntry {
        rule: "no-panic",
        path: "crates/engine/src/engine.rs",
        needle: ".expect(\"the loader spec carries the feature table\")",
        why: "run_process puts the feature table in every LoaderSpec it builds, so every batch \
              arrives with its prepared input",
    },
    AllowEntry {
        rule: "no-panic",
        path: "crates/rt/src/affinity.rs",
        needle: ".expect(\"capacity checked above\")",
        why: "preceding if-branch guarantees capacity; see the comment at the call site",
    },
    AllowEntry {
        rule: "no-panic",
        path: "crates/rt/src/pool.rs",
        needle: ".expect(\"spawn pool worker\")",
        why: "thread::Builder::spawn fails only on OS thread exhaustion; no meaningful recovery",
    },
    AllowEntry {
        rule: "no-panic",
        path: "crates/rt/src/pool.rs",
        needle: ".expect(\"pool alive\")",
        why: "worker channels live exactly as long as the pool that owns them",
    },
    AllowEntry {
        rule: "no-panic",
        path: "crates/rt/src/pool.rs",
        needle: ".expect(\"pool workers alive\")",
        why: "completion latch is held open until every worker acks; disconnect is unreachable",
    },
    AllowEntry {
        rule: "no-panic",
        path: "crates/sample/src/loader.rs",
        needle: ".expect(\"spawn sampler\")",
        why: "thread::Builder::spawn fails only on OS thread exhaustion; no meaningful recovery",
    },
    // ---- sampler-scratch: serve-path sites that allocate by design. -------
    AllowEntry {
        rule: "sampler-scratch",
        path: "crates/serve/src/session.rs",
        needle: "req.seeds.clone()",
        why: "the result cache takes ownership of its key; one clone per computed (miss) \
              response, not per batch element — hits allocate nothing",
    },
];

/// Tracks which entries matched during a run so stale ones can be reported.
pub struct AllowTracker {
    used: Vec<bool>,
}

impl AllowTracker {
    pub fn new() -> Self {
        Self {
            used: vec![false; ALLOWLIST.len()],
        }
    }

    /// Returns true (and records the use) if some entry sanctions this
    /// diagnostic site.
    pub fn permits(&mut self, rule: &str, path: &str, raw_line: &str) -> bool {
        let mut hit = false;
        for (i, e) in ALLOWLIST.iter().enumerate() {
            if e.rule == rule && path.ends_with(e.path) && raw_line.contains(e.needle) {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Emits a diagnostic for every entry that never matched: either the
    /// exempted code was fixed (delete the entry) or the needle drifted.
    pub fn report_stale(&self, out: &mut Vec<Diagnostic>) {
        for (i, e) in ALLOWLIST.iter().enumerate() {
            if !self.used[i] {
                out.push(Diagnostic {
                    path: e.path.to_string(),
                    line: 0,
                    rule: "stale-allowlist",
                    message: format!(
                        "allowlist entry for rule `{}` with needle `{}` matched nothing; \
                         delete it or update the needle",
                        e.rule, e.needle
                    ),
                });
            }
        }
    }
}

impl Default for AllowTracker {
    fn default() -> Self {
        Self::new()
    }
}
