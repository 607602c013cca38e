//! Static wait/notify protocol analysis — the lexical complement to the
//! `astro-check` model checker.
//!
//! The checker (`crates/check`) *dynamically* explores every interleaving
//! of the serving stack's condvar protocols, but only for the protocols
//! someone wrote a harness for. This pass closes the gap statically: every
//! condvar in the scanned crates must belong to a **declared protocol**
//! ([`WAIT_PROTOCOLS`]), and every declared protocol must obey the shape
//! the checker's soundness argument assumes:
//!
//! * `waits.wait-not-in-loop` — a condvar `wait`/`wait_timeout` outside a
//!   `loop`/`while`/`for` body. Spurious wakeups and multi-consumer
//!   races make a bare `if`-guarded wait a lost-wakeup bug (exactly the
//!   `WaitIfInsteadOfWhile` mutant the checker catches dynamically).
//! * `waits.no-notify` — a protocol with wait sites but no
//!   `notify_one`/`notify_all` on its condvar anywhere in the file: the
//!   waiters can never be woken.
//! * `waits.mutate-no-notify` — a function mutates a guarded predicate
//!   field (a declared *mutator* pattern) without notifying the
//!   protocol's condvar in the same function (the `DropNotifyOnClose`
//!   mutant, statically). Per-protocol *waivers* exempt mutations that
//!   cannot unblock a waiter (e.g. incrementing a pending counter whose
//!   waiters wake on the count reaching zero, so only decrements
//!   notify).
//! * `waits.channel-no-recv` — a file creates an `mpsc` channel but
//!   never drains a receiver (`recv`/`recv_timeout`/`try_recv`/`iter`):
//!   every sender clone would block its messages into the void and
//!   senders' `send` results hide a permanently-disconnected receiver.
//! * `waits.undeclared` — a wait on a condvar not covered by any
//!   declared protocol: the model checker has no harness for it, so it
//!   has no soundness story (error, by design — declaring the protocol
//!   is the fix).
//! * `waits.unused-protocol` — a declared protocol whose file contains
//!   no wait on its condvar, or whose file is not among the scanned
//!   sources at all: the table drifted from the code (error, so CI fails
//!   on a row that outlives its condvar).
//!
//! Like [`crate::lockorder`], the pass is lexical: comments and string
//! literals are stripped, brace depth scopes loops and functions, and
//! multi-line method chains (`self\n.cv\n.wait(g)`) are resolved by
//! joining a short window of preceding lines. Lexical analysis
//! over-approximates reachability, which is the conservative direction
//! for the first five rules.

use crate::lockorder::strip_noise;
use crate::{Diagnostic, Severity};
use std::path::Path;

/// A declared condvar protocol: which condvar, in which file, guarding
/// which predicate mutations.
#[derive(Clone, Copy, Debug)]
pub struct WaitProtocol {
    /// Stable protocol name for reports (`gateway.queue.cv`, …).
    pub name: &'static str,
    /// Path suffix of the file the protocol lives in.
    pub file: &'static str,
    /// Field name of the `Condvar` (`cv`, `quiescent`, …).
    pub condvar: &'static str,
    /// Line patterns that count as guarded-predicate mutations: any
    /// function containing one must also notify `condvar`.
    pub mutators: &'static [&'static str],
    /// Substrings that waive an otherwise-matching mutation line
    /// (mutations that can never unblock a waiter).
    pub waived: &'static [&'static str],
}

/// Every condvar protocol in the scanned crates. A new condvar anywhere
/// in `crates/{serve,resilience,telemetry,gateway,router}` must be
/// added here (and should get an `astro-check` harness) or the pass
/// fails with `waits.undeclared`.
pub const WAIT_PROTOCOLS: &[WaitProtocol] = &[
    WaitProtocol {
        name: "gateway.queue.cv",
        file: "crates/gateway/src/queue.rs",
        condvar: "cv",
        // Pushing an item or closing the queue can unblock a `pop`.
        mutators: &["items.push_back(", "closed = true"],
        waived: &[],
    },
];

/// One lexically-observed condvar wait site.
#[derive(Clone, Debug)]
pub struct WaitSite {
    /// Receiver identifier of the `.wait(…)` call (the condvar field).
    pub condvar: String,
    /// `file:line` of the wait.
    pub at: String,
    /// Whether the wait is lexically inside a loop body.
    pub in_loop: bool,
}

/// Result of the static wait/notify pass.
#[derive(Clone, Debug, Default)]
pub struct WaitReport {
    /// Number of protocols checked.
    pub protocols: usize,
    /// Every wait site found, in scan order.
    pub sites: Vec<WaitSite>,
    /// Diagnostics from all rules.
    pub diagnostics: Vec<Diagnostic>,
}

impl WaitReport {
    /// True when no error-severity diagnostics were produced.
    pub fn ok(&self) -> bool {
        self.diagnostics.iter().all(|d| d.severity != Severity::Error)
    }
}

/// True when `line` contains `kw` as a standalone word.
fn has_keyword(line: &str, kw: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(idx) = line[from..].find(kw) {
        let start = from + idx;
        let end = start + kw.len();
        let before_ok = start == 0
            || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok = end >= bytes.len()
            || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Extract the receiver identifier of a `.wait(`/`.wait_timeout(` call at
/// byte offset `at` of `line`, joining up to three preceding (stripped)
/// lines so multi-line method chains resolve (`self\n.cv\n.wait(g)`).
fn wait_receiver(prev: &[String], line: &str, at: usize) -> Option<String> {
    let mut chain = String::new();
    for p in prev {
        chain.push_str(p.trim());
    }
    chain.push_str(line[..at].trim());
    let compact: String = chain.chars().filter(|c| !c.is_whitespace()).collect();
    let ident: String = compact
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// Per-function bookkeeping while scanning a file.
struct FnScope {
    name: String,
    /// Brace depth just *outside* the function body.
    open_depth: i64,
    /// Mutation lines seen: (protocol index, `file:line`, matched pattern).
    mutations: Vec<(usize, String, String)>,
    /// Protocol indices whose condvar this function notifies.
    notifies: Vec<usize>,
}

/// Scan one file against the protocols declared for it.
fn scan_file(path: &Path, protocols: &[WaitProtocol], report: &mut WaitReport) {
    let Ok(text) = std::fs::read_to_string(path) else {
        report.diagnostics.push(Diagnostic::error(
            "waits.io",
            &path.display().to_string(),
            "failed to read source".to_string(),
        ));
        return;
    };
    let display = path.display().to_string();
    let mine: Vec<(usize, &WaitProtocol)> = protocols
        .iter()
        .enumerate()
        .filter(|(_, p)| display.ends_with(p.file))
        .collect();

    let mut in_block_comment = false;
    let mut depth: i64 = 0;
    let mut loop_depths: Vec<i64> = Vec::new();
    let mut fn_stack: Vec<FnScope> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut prev_lines: Vec<String> = Vec::new();
    let mut channel_lines: Vec<usize> = Vec::new();
    let mut has_drain = false;
    let mut notified_in_file: Vec<bool> = vec![false; protocols.len()];
    let mut finished_fns: Vec<FnScope> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_noise(raw, &mut in_block_comment);
        let subject = format!("{display}:{lineno}");

        // A `fn` keyword opens a pending function; its body starts at the
        // next `{` (signatures may span lines).
        if has_keyword(&line, "fn") {
            if let Some(idx) = line.find("fn ") {
                let name: String = line[idx + 3..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    pending_fn = Some(name);
                }
            }
        }
        let opens_loop = has_keyword(&line, "loop")
            || has_keyword(&line, "while")
            || has_keyword(&line, "for");

        // Wait sites: resolve the receiver across the method chain.
        for pat in [".wait(", ".wait_timeout("] {
            let mut from = 0;
            while let Some(idx) = line[from..].find(pat) {
                let at = from + idx;
                let in_loop = !loop_depths.is_empty();
                if let Some(recv) = wait_receiver(&prev_lines, &line, at) {
                    report.sites.push(WaitSite {
                        condvar: recv.clone(),
                        at: subject.clone(),
                        in_loop,
                    });
                    match mine.iter().find(|(_, p)| p.condvar == recv) {
                        None => report.diagnostics.push(Diagnostic::error(
                            "waits.undeclared",
                            &subject,
                            format!(
                                "wait on condvar `{recv}` matches no declared protocol; \
                                 add it to WAIT_PROTOCOLS and give it an astro-check \
                                 harness"
                            ),
                        )),
                        Some((_, p)) => {
                            if !in_loop {
                                report.diagnostics.push(Diagnostic::error(
                                    "waits.wait-not-in-loop",
                                    &subject,
                                    format!(
                                        "wait on `{}` ({}) is not inside a predicate \
                                         re-check loop; spurious wakeups or a second \
                                         consumer make this a lost wakeup",
                                        p.condvar, p.name
                                    ),
                                ));
                            }
                        }
                    }
                }
                from = at + pat.len();
            }
        }

        // Notifies, mutations and channel use, attributed to the
        // innermost open function.
        for (pidx, p) in &mine {
            if line.contains(&format!("{}.notify", p.condvar)) {
                notified_in_file[*pidx] = true;
                if let Some(f) = fn_stack.last_mut() {
                    f.notifies.push(*pidx);
                }
            }
            for m in p.mutators {
                if line.contains(m) && !p.waived.iter().any(|w| line.contains(w)) {
                    if let Some(f) = fn_stack.last_mut() {
                        f.mutations.push((*pidx, subject.clone(), m.to_string()));
                    }
                }
            }
        }
        if ["mpsc::channel(", "channel::<", "= channel()"]
            .iter()
            .any(|pat| line.contains(pat))
        {
            channel_lines.push(lineno);
        }
        if [".recv(", ".recv_timeout(", ".try_recv(", ".iter()", ".into_iter()"]
            .iter()
            .any(|pat| line.contains(pat))
        {
            has_drain = true;
        }

        // Brace walk: maintain depth, loop scopes and function scopes.
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push(FnScope {
                            name,
                            open_depth: depth - 1,
                            mutations: Vec::new(),
                            notifies: Vec::new(),
                        });
                    } else if opens_loop && loop_depths.last() != Some(&depth) {
                        loop_depths.push(depth);
                    }
                }
                '}' => {
                    depth -= 1;
                    while loop_depths.last().is_some_and(|&d| d > depth) {
                        loop_depths.pop();
                    }
                    while fn_stack.last().is_some_and(|f| f.open_depth >= depth) {
                        if let Some(f) = fn_stack.pop() {
                            finished_fns.push(f);
                        }
                    }
                }
                _ => {}
            }
        }

        prev_lines.push(line);
        if prev_lines.len() > 3 {
            prev_lines.remove(0);
        }
    }
    finished_fns.extend(fn_stack);

    // Per-function rule: a guarded-predicate mutation with no notify of
    // the protocol condvar in the same function.
    for f in &finished_fns {
        for (pidx, at, pattern) in &f.mutations {
            if !f.notifies.contains(pidx) {
                let p = &protocols[*pidx];
                report.diagnostics.push(Diagnostic::error(
                    "waits.mutate-no-notify",
                    at,
                    format!(
                        "`{}` mutates the {} predicate (`{}`) without notifying \
                         `{}` in the same function; a parked waiter misses the \
                         transition",
                        f.name, p.name, pattern, p.condvar
                    ),
                ));
            }
        }
    }

    // File-level rules: unwakeable waiters, undrained channels.
    for (pidx, p) in &mine {
        let waited = report
            .sites
            .iter()
            .any(|s| s.at.starts_with(&display) && s.condvar == p.condvar);
        if waited && !notified_in_file[*pidx] {
            report.diagnostics.push(Diagnostic::error(
                "waits.no-notify",
                &display,
                format!(
                    "protocol {} has wait sites but `{}.notify_one/notify_all` \
                     never appears; waiters can never be woken",
                    p.name, p.condvar
                ),
            ));
        }
    }
    if !channel_lines.is_empty() && !has_drain {
        let first = channel_lines[0];
        report.diagnostics.push(Diagnostic::error(
            "waits.channel-no-recv",
            &format!("{display}:{first}"),
            "an mpsc channel is created here but no receiver is ever drained \
             (recv/recv_timeout/try_recv/iter); every Sender clone feeds a \
             queue nobody empties"
                .to_string(),
        ));
    }
}

/// Run the wait/notify pass over the sources under
/// [`crate::CONCURRENCY_ROOTS`] with a caller supplied protocol table
/// (tests use synthetic tables).
pub fn analyze_waits_with(root: &Path, protocols: &[WaitProtocol]) -> WaitReport {
    let mut report = WaitReport {
        protocols: protocols.len(),
        ..WaitReport::default()
    };
    let files = match crate::concurrency_sources(root, "waits.no-sources") {
        Ok(files) => files,
        Err(no_sources) => {
            report.diagnostics.push(no_sources);
            return report;
        }
    };
    for file in &files {
        if file.ends_with("lockcheck.rs") || file.ends_with("telemetry/src/sync.rs") {
            // The runtime checker and the sync-primitive shim implement
            // the machinery this pass audits clients of.
            continue;
        }
        scan_file(file, protocols, &mut report);
    }
    // A row whose file has no wait on its condvar — or is not among the
    // scanned files at all — has outlived its code.
    for p in protocols {
        let waited = report.sites.iter().any(|s| {
            s.condvar == p.condvar
                && s.at.rsplit_once(':').is_some_and(|(file, _)| file.ends_with(p.file))
        });
        if !waited {
            report.diagnostics.push(Diagnostic::error(
                "waits.unused-protocol",
                p.file,
                format!(
                    "protocol {} is declared but no wait on `{}` was found in this \
                     file; the table has drifted from the code",
                    p.name, p.condvar
                ),
            ));
        }
    }
    report
}

/// Run the full wait/notify pass with the repo's declared protocol table.
pub fn analyze_waits(root: &Path) -> WaitReport {
    analyze_waits_with(root, WAIT_PROTOCOLS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
    }

    /// Write `body` as the sole scanned file of a synthetic workspace and
    /// analyze it against `protocols`.
    fn scan_synthetic(tag: &str, body: &str, protocols: &[WaitProtocol]) -> WaitReport {
        let dir = std::env::temp_dir().join(format!("astro-audit-waits-{tag}-{}", std::process::id()));
        let src = dir.join("crates/gateway/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("proto.rs"), body).unwrap();
        let report = analyze_waits_with(&dir, protocols);
        std::fs::remove_dir_all(&dir).ok();
        report
    }

    const SYNTH: &[WaitProtocol] = &[WaitProtocol {
        name: "synthetic.cv",
        file: "crates/gateway/src/proto.rs",
        condvar: "cv",
        mutators: &["items.push_back("],
        waived: &[],
    }];

    #[test]
    fn workspace_wait_protocols_are_clean() {
        let report = analyze_waits(&repo_root());
        let errors: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.render())
            .collect();
        assert!(errors.is_empty(), "wait/notify errors:\n{}", errors.join("\n"));
        // Every declared protocol is waited on somewhere.
        assert!(
            report.sites.len() >= WAIT_PROTOCOLS.len(),
            "expected wait sites, got {:?}",
            report.sites
        );
    }

    #[test]
    fn every_declared_protocol_is_used() {
        let report = analyze_waits(&repo_root());
        let unused: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "waits.unused-protocol")
            .collect();
        assert!(unused.is_empty(), "unused protocols: {unused:?}");
    }

    #[test]
    fn correct_synthetic_protocol_passes() {
        let report = scan_synthetic(
            "ok",
            r#"fn push(&self) {
    let mut g = self.inner.lock().unwrap();
    g.items.push_back(1);
    self.cv.notify_one();
}
fn pop(&self) {
    let mut g = self.inner.lock().unwrap();
    while g.items.is_empty() {
        g = self.cv.wait(g).unwrap();
    }
}
"#,
            SYNTH,
        );
        assert!(report.ok(), "{:?}", report.diagnostics);
        assert_eq!(report.sites.len(), 1);
        assert!(report.sites[0].in_loop);
    }

    #[test]
    fn flags_wait_outside_loop() {
        let report = scan_synthetic(
            "ifwait",
            r#"fn pop(&self) {
    let mut g = self.inner.lock().unwrap();
    if g.items.is_empty() {
        g = self.cv.wait(g).unwrap();
    }
    self.cv.notify_one();
}
"#,
            SYNTH,
        );
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "waits.wait-not-in-loop"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn flags_protocol_without_notify() {
        let report = scan_synthetic(
            "nonotify",
            r#"fn pop(&self) {
    let mut g = self.inner.lock().unwrap();
    while g.items.is_empty() {
        g = self.cv.wait(g).unwrap();
    }
}
"#,
            SYNTH,
        );
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "waits.no-notify"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn flags_mutation_without_notify_in_same_fn() {
        // The file *does* notify (in close), so only the per-function
        // rule can catch the silent mutation in push.
        let report = scan_synthetic(
            "mutate",
            r#"fn push(&self) {
    let mut g = self.inner.lock().unwrap();
    g.items.push_back(1);
}
fn close(&self) {
    self.cv.notify_all();
}
fn pop(&self) {
    let mut g = self.inner.lock().unwrap();
    while g.items.is_empty() {
        g = self.cv.wait(g).unwrap();
    }
}
"#,
            SYNTH,
        );
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "waits.mutate-no-notify"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn a_row_that_outlived_its_code_is_an_error() {
        // One row's file has no wait on its condvar, the other row's file
        // does not exist: both fail the pass.
        let protos: &[WaitProtocol] = &[
            SYNTH[0],
            WaitProtocol { name: "synthetic.gone", file: "crates/gateway/src/deleted.rs", ..SYNTH[0] },
        ];
        let report = scan_synthetic("drift", "fn idle(&self) {}\n", protos);
        assert!(!report.ok());
        let drifted: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "waits.unused-protocol" && d.severity == Severity::Error)
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(drifted.len(), 2, "{:?}", report.diagnostics);
        assert!(drifted.contains(&"crates/gateway/src/deleted.rs"), "{drifted:?}");
    }

    #[test]
    fn waiver_exempts_declared_mutation() {
        let protos: &[WaitProtocol] = &[WaitProtocol {
            name: "synthetic.pending",
            file: "crates/gateway/src/proto.rs",
            condvar: "cv",
            mutators: &["*pending =", "*pending +="],
            waived: &["*pending += 1"],
        }];
        let report = scan_synthetic(
            "waiver",
            r#"fn submit(&self) {
    let mut pending = self.pending.lock().unwrap();
    *pending += 1;
}
fn finish(&self) {
    let mut pending = self.pending.lock().unwrap();
    *pending = pending.saturating_sub(1);
    self.cv.notify_all();
}
fn join(&self) {
    let mut pending = self.pending.lock().unwrap();
    while *pending > 0 {
        pending = self.cv.wait(pending).unwrap();
    }
}
"#,
            protos,
        );
        assert!(report.ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn flags_undeclared_condvar_wait() {
        let report = scan_synthetic(
            "undeclared",
            r#"fn pop(&self) {
    let mut g = self.inner.lock().unwrap();
    while g.items.is_empty() {
        g = self.mystery.wait(g).unwrap();
    }
    self.mystery.notify_one();
}
"#,
            SYNTH,
        );
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "waits.undeclared"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn flags_channel_without_receiver_drain() {
        let report = scan_synthetic(
            "chan",
            r#"fn start(&self) {
    let (tx, _rx) = mpsc::channel();
    tx.send(1).unwrap();
}
"#,
            &[],
        );
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "waits.channel-no-recv"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn multi_line_method_chain_resolves_receiver() {
        let report = scan_synthetic(
            "chain",
            r#"fn pop(&self) {
    let mut g = self.inner.lock().unwrap();
    while g.items.is_empty() {
        g = self
            .cv
            .wait(g)
            .unwrap();
    }
    self.cv.notify_one();
}
"#,
            SYNTH,
        );
        assert!(report.ok(), "{:?}", report.diagnostics);
        assert_eq!(report.sites.len(), 1);
        assert_eq!(report.sites[0].condvar, "cv");
        assert!(report.sites[0].in_loop);
    }
}
