//! The rule registry: nine repo-specific invariants.
//!
//! Every rule reports [`Finding`]s anchored at a `file:line` so inline
//! `habf-lint: allow(...)` suppressions (see [`crate::engine`]) can target
//! them. Path scoping uses suffix matching against `/`-separated relative
//! paths, so the fixture corpora under `tests/fixtures/` exercise the same
//! code paths as the live workspace.

use crate::engine::Workspace;
use crate::source::{
    at_word, find_sub, find_word, is_ident, match_brace, prev_nonspace, prev_word, FnItem,
    SourceFile, UnsafeKind,
};

/// One rule violation, anchored where a suppression comment can reach it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id, e.g. `decode-no-panic`.
    pub rule: &'static str,
    /// `/`-separated path relative to the analysis root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A single invariant check over the whole workspace.
pub trait Rule {
    /// Stable rule id (used in suppressions and reports).
    fn id(&self) -> &'static str;
    /// One-line description for `--list` style output and docs.
    fn description(&self) -> &'static str;
    /// Appends findings for this rule.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// All shipped rules, in report order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DecodeNoPanic),
        Box::new(AllocCapBeforeLen),
        Box::new(SafetyComment),
        Box::new(NoProbeUnderLock),
        Box::new(RegistryFixtureParity),
        Box::new(WireFrameParity),
        Box::new(NoUnwrapInServe),
        Box::new(BenchArtifactParity),
        Box::new(NoBlockInReactor),
    ]
}

/// Files whose decode/parse functions must be panic-free: every source
/// file of `habf-core` — the container codecs, the registry, the frozen
/// old-format readers, and each filter's decode hooks — plus the wire
/// protocol.
fn is_decode_file(rel: &str) -> bool {
    rel.starts_with("crates/core/src/") || rel.ends_with("crates/serve/src/protocol.rs")
}

/// A function is a decode function when its signature names one of the
/// typed decode error enums: every `Reader`/`Cursor` primitive and every
/// `load_*`/`decode_*`/`parse*` codec returns `PersistError` or
/// `WireError`, while encode paths return plain values.
fn is_decode_fn(f: &SourceFile, item: &FnItem) -> bool {
    let sig = &f.masked[item.sig.clone()];
    sig.contains("PersistError") || sig.contains("WireError")
}

// ---------------------------------------------------------------------
// Rule 1: decode-no-panic
// ---------------------------------------------------------------------

struct DecodeNoPanic;

impl Rule for DecodeNoPanic {
    fn id(&self) -> &'static str {
        "decode-no-panic"
    }
    fn description(&self) -> &'static str {
        "decode fns in crates/core/src and protocol.rs must not \
         unwrap/expect/index/`as`-narrow or use unchecked + - * <<"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in ws.files().iter().filter(|f| is_decode_file(&f.rel)) {
            for item in f.fns() {
                if !is_decode_fn(f, item) || f.in_test(item.body.start) {
                    continue;
                }
                for (pos, what) in panic_tokens(f, item, true) {
                    out.push(Finding {
                        rule: self.id(),
                        file: f.rel.clone(),
                        line: f.line_of(pos),
                        message: format!("{what} in decode fn `{}`", item.name),
                    });
                }
            }
        }
    }
}

/// Scans one decode-fn body for panic-capable tokens. `strict` adds the
/// indexing / `as`-narrowing / unchecked-arithmetic classes on top of the
/// unwrap/expect/panic-macro class.
fn panic_tokens(f: &SourceFile, item: &FnItem, strict: bool) -> Vec<(usize, String)> {
    let masked = &f.masked;
    let b = masked.as_bytes();
    let body = item.body.clone();
    let mut out = Vec::new();

    // Panicking calls and macros.
    for pat in [".unwrap()", ".expect("] {
        let mut i = body.start;
        while let Some(pos) = find_sub(b, pat.as_bytes(), i) {
            if pos >= body.end {
                break;
            }
            i = pos + pat.len();
            out.push((pos, format!("`{}`", pat.trim_end_matches('('))));
        }
    }
    for mac in [
        "panic!",
        "unreachable!",
        "assert!",
        "assert_eq!",
        "assert_ne!",
        "todo!",
        "unimplemented!",
    ] {
        let word = mac.trim_end_matches('!');
        let mut i = body.start;
        while let Some(pos) = find_word(b, word.as_bytes(), i) {
            if pos >= body.end {
                break;
            }
            i = pos + word.len();
            if b.get(pos + word.len()) == Some(&b'!') {
                out.push((pos, format!("`{mac}`")));
            }
        }
    }
    if !strict {
        return out;
    }

    // Slice/array indexing: `expr[...]` where expr ends in an identifier,
    // `)`, `]`, or `?`. Keywords (`mut`, `ref`, ...) before `[` mean a type
    // or pattern, not an index.
    const KEYWORDS: [&str; 14] = [
        "mut", "ref", "in", "return", "break", "else", "match", "if", "while", "let", "dyn",
        "impl", "const", "move",
    ];
    for pos in body.clone() {
        if b[pos] != b'[' {
            continue;
        }
        let Some(prev) = prev_nonspace(b, pos) else {
            continue;
        };
        let indexed = match prev {
            b')' | b']' | b'?' => true,
            p if is_ident(p) => {
                let w = prev_word(masked, pos);
                !KEYWORDS.contains(&w) && !w.chars().next().is_some_and(|c| c.is_ascii_digit())
            }
            _ => false,
        };
        if indexed {
            out.push((
                pos,
                "slice/array indexing (use `.get(..)` + `ok_or`)".into(),
            ));
        }
    }

    // `as` narrowing casts: any cast to a type that can lose value range.
    const NARROW: [&str; 9] = [
        "u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize", "f32",
    ];
    {
        let mut i = body.start;
        while let Some(pos) = find_word(b, b"as", i) {
            if pos >= body.end {
                break;
            }
            i = pos + 2;
            let mut j = i;
            while j < body.end && b[j].is_ascii_whitespace() {
                j += 1;
            }
            let t_start = j;
            while j < body.end && is_ident(b[j]) {
                j += 1;
            }
            let target = &masked[t_start..j];
            if NARROW.contains(&target) {
                out.push((
                    pos,
                    format!("`as {target}` narrowing cast (use `{target}::try_from` / `::from`)"),
                ));
            }
        }
    }

    // Unchecked binary `+ - * <<` (including compound assignment). Skips
    // literal⊕literal constant folds, unary minus/deref, `->`, and `+ 'a`
    // lifetime bounds.
    let mut pos = body.start;
    while pos < body.end {
        let c = b[pos];
        let (op, op_len): (&str, usize) = match c {
            b'+' => ("+", 1),
            b'*' => ("*", 1),
            b'-' if b.get(pos + 1) != Some(&b'>') => ("-", 1),
            b'<' if b.get(pos + 1) == Some(&b'<') && b.get(pos + 2) != Some(&b'<') => ("<<", 2),
            _ => {
                pos += 1;
                continue;
            }
        };
        if c == b'<' && b.get(pos.wrapping_sub(1)) == Some(&b'<') {
            pos += 1;
            continue;
        }
        let binary = matches!(prev_nonspace(b, pos), Some(p) if is_ident(p) || p == b')' || p == b']' || p == b'?');
        if !binary {
            pos += op_len;
            continue;
        }
        // Next token: skip the op (and a trailing `=` for compound forms).
        let mut j = pos + op_len;
        if b.get(j) == Some(&b'=') {
            j += 1;
        }
        while j < body.end && b[j].is_ascii_whitespace() {
            j += 1;
        }
        if b.get(j) == Some(&b'\'') {
            // `+ 'a` trait-object lifetime bound.
            pos += op_len;
            continue;
        }
        let lhs_lit = prev_word(masked, pos)
            .chars()
            .next()
            .is_some_and(|ch| ch.is_ascii_digit());
        let mut k = j;
        while k < body.end && is_ident(b[k]) {
            k += 1;
        }
        let rhs_lit = masked[j..k]
            .chars()
            .next()
            .is_some_and(|ch| ch.is_ascii_digit());
        if !(lhs_lit && rhs_lit) {
            out.push((
                pos,
                format!("unchecked `{op}` (use `checked_/saturating_` or prove the bound)"),
            ));
        }
        pos += op_len;
    }

    out.sort_by_key(|&(p, _)| p);
    out
}

// ---------------------------------------------------------------------
// Rule 2: alloc-cap-before-len
// ---------------------------------------------------------------------

struct AllocCapBeforeLen;

impl Rule for AllocCapBeforeLen {
    fn id(&self) -> &'static str {
        "alloc-cap-before-len"
    }
    fn description(&self) -> &'static str {
        "Vec::with_capacity/vec![_; n] sized from decoded lengths must be \
         dominated by a cap check"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in ws.files().iter().filter(|f| is_decode_file(&f.rel)) {
            for item in f.fns() {
                if !is_decode_fn(f, item) || f.in_test(item.body.start) {
                    continue;
                }
                self.check_body(f, item, out);
            }
        }
    }
}

impl AllocCapBeforeLen {
    fn check_body(&self, f: &SourceFile, item: &FnItem, out: &mut Vec<Finding>) {
        let masked = &f.masked;
        let b = masked.as_bytes();
        let body = item.body.clone();
        let mut sites: Vec<(usize, String)> = Vec::new();

        let mut i = body.start;
        while let Some(pos) = find_sub(b, b"with_capacity(", i) {
            if pos >= body.end {
                break;
            }
            let open = pos + "with_capacity".len();
            let close = match_delim(b, open, b'(', b')');
            i = open + 1;
            sites.push((pos, masked[open + 1..close.min(body.end)].to_string()));
        }
        let mut i = body.start;
        while let Some(pos) = find_word(b, b"vec", i) {
            if pos >= body.end {
                break;
            }
            i = pos + 3;
            if b.get(pos + 3) != Some(&b'!') {
                continue;
            }
            let Some(open) = (pos + 4..body.end).find(|&k| b[k] == b'[' || b[k] == b'(') else {
                continue;
            };
            let (oc, cc) = if b[open] == b'[' {
                (b'[', b']')
            } else {
                (b'(', b')')
            };
            let close = match_delim(b, open, oc, cc);
            let content = &masked[open + 1..close.min(body.end)];
            // Only the repeat form `vec![elem; len]` allocates by length.
            if let Some(semi) = top_level_semi(content) {
                sites.push((pos, content[semi + 1..].to_string()));
            }
        }

        for (pos, arg) in sites {
            let arg = arg.trim();
            if Self::arg_is_capped(arg) {
                continue;
            }
            let Some(ident) = first_len_ident(arg) else {
                continue;
            };
            let before = &masked[body.start..pos];
            let guarded = before.lines().any(|l| {
                l.contains(ident)
                    && l.contains(['<', '>'])
                    && (l.contains("MAX")
                        || l.contains(".len()")
                        || l.chars().any(|c| c.is_ascii_digit()))
            });
            if !guarded {
                out.push(Finding {
                    rule: self.id(),
                    file: f.rel.clone(),
                    line: f.line_of(pos),
                    message: format!(
                        "allocation sized by `{ident}` in decode fn `{}` has no dominating cap \
                         check (guard with a `MAX_*` bound or `.min(..)` first)",
                        item.name
                    ),
                });
            }
        }
    }

    fn arg_is_capped(arg: &str) -> bool {
        arg.contains(".min(") || arg.contains("MAX") || first_len_ident(arg).is_none()
    }
}

/// First identifier in `arg` that looks like a length variable (skips cast
/// keywords and primitive type names).
fn first_len_ident(arg: &str) -> Option<&str> {
    const SKIP: [&str; 12] = [
        "as", "usize", "u8", "u16", "u32", "u64", "i32", "i64", "isize", "min", "from", "try_from",
    ];
    arg.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .find(|t| !t.chars().next().is_some_and(|c| c.is_ascii_digit()) && !SKIP.contains(t))
}

fn top_level_semi(content: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (i, c) in content.bytes().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b';' if depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

fn match_delim(b: &[u8], open: usize, oc: u8, cc: u8) -> usize {
    let mut depth = 0i64;
    let mut k = open;
    while k < b.len() {
        if b[k] == oc {
            depth += 1;
        } else if b[k] == cc {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    b.len()
}

// ---------------------------------------------------------------------
// Rule 3: safety-comment
// ---------------------------------------------------------------------

struct SafetyComment;

impl Rule for SafetyComment {
    fn id(&self) -> &'static str {
        "safety-comment"
    }
    fn description(&self) -> &'static str {
        "every unsafe block/fn/impl carries a SAFETY: (or `# Safety`) comment"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in ws.files() {
            for (pos, kind) in f.unsafe_sites() {
                let line = f.line_of(pos);
                if has_safety_comment(f, line) {
                    continue;
                }
                out.push(Finding {
                    rule: self.id(),
                    file: f.rel.clone(),
                    line,
                    message: format!(
                        "unsafe {} without a SAFETY: comment on the preceding comment run",
                        match kind {
                            UnsafeKind::Block => "block",
                            UnsafeKind::Fn => "fn",
                            UnsafeKind::Impl => "impl",
                            UnsafeKind::Trait => "trait",
                            UnsafeKind::Extern => "extern block",
                        }
                    ),
                });
            }
        }
    }
}

/// A SAFETY justification counts when it appears on the site's own line or
/// anywhere in the contiguous run of comment/attribute lines directly above
/// it (`// SAFETY: ...`, `/// # Safety`, attributes interleaved).
fn has_safety_comment(f: &SourceFile, line: usize) -> bool {
    let marker = |l: &str| l.contains("SAFETY") || l.contains("# Safety");
    if marker(f.line_text(line)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let t = f.line_text(l).trim();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") || t.starts_with("*") {
            if marker(t) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule 4: no-probe-under-lock
// ---------------------------------------------------------------------

struct NoProbeUnderLock;

const LOCK_TOKENS: [&str; 3] = [".lock()", ".read()", ".write()"];
const PROBE_TOKENS: [&str; 3] = [".contains(", ".contains_batch(", ".as_batch("];

impl Rule for NoProbeUnderLock {
    fn id(&self) -> &'static str {
        "no-probe-under-lock"
    }
    fn description(&self) -> &'static str {
        "no filter probes (.contains/.as_batch) inside lock()/read()/write() \
         guard scopes in tenant.rs/server.rs/sharded.rs"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let target = |rel: &str| {
            rel.contains("/src/")
                && (rel.ends_with("tenant.rs")
                    || rel.ends_with("server.rs")
                    || rel.ends_with("sharded.rs"))
        };
        for f in ws.files().iter().filter(|f| target(&f.rel)) {
            for item in f.fns() {
                if f.in_test(item.body.start) {
                    continue;
                }
                self.check_body(f, item, out);
            }
        }
    }
}

impl NoProbeUnderLock {
    fn check_body(&self, f: &SourceFile, item: &FnItem, out: &mut Vec<Finding>) {
        let masked = &f.masked;
        let b = masked.as_bytes();
        let body = item.body.clone();
        // Active guards: (scope_start, brace_depth_at_binding). A guard dies
        // when the brace depth drops below its binding depth.
        let mut guards: Vec<(usize, i64)> = Vec::new();
        let mut depth = 0i64;
        let mut i = body.start;
        while i < body.end {
            match b[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    guards.retain(|&(_, d)| d <= depth);
                }
                b'l' if at_word(b, i, b"let") => {
                    // Statement text: from `let` to the first `;` or `{` at
                    // relative delimiter depth 0. Scanning continues inside
                    // the statement afterwards, so probes under an already
                    // live guard are still seen by the `.` arm below.
                    let (stmt_end, opens_block) = statement_end(b, i + 3, body.end);
                    let stmt = &masked[i..stmt_end];
                    if LOCK_TOKENS.iter().any(|t| stmt.contains(t)) {
                        let bind_depth = if opens_block { depth + 1 } else { depth };
                        guards.push((stmt_end, bind_depth));
                        // A probe in the guard-taking statement itself is
                        // just as much "under the lock".
                        for t in PROBE_TOKENS {
                            if let Some(off) = stmt.find(t) {
                                self.report(f, item, i + off, t, out);
                            }
                        }
                    }
                }
                b'.' => {
                    for t in PROBE_TOKENS {
                        if masked[i..body.end.min(i + t.len())].starts_with(t)
                            && guards.iter().any(|&(start, _)| i > start)
                        {
                            self.report(f, item, i, t, out);
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn report(
        &self,
        f: &SourceFile,
        item: &FnItem,
        pos: usize,
        token: &str,
        out: &mut Vec<Finding>,
    ) {
        out.push(Finding {
            rule: self.id(),
            file: f.rel.clone(),
            line: f.line_of(pos),
            message: format!(
                "`{}` while a lock guard is live in `{}` — snapshot (Arc clone) first, probe \
                 outside the critical section",
                token.trim_end_matches('('),
                item.name
            ),
        });
    }
}

/// End of a `let` statement: first `;` (exclusive of nested delimiters) or
/// the `{` opening an `if let`/`while let`/`match` block. Returns the end
/// offset and whether it terminated at a block opener.
fn statement_end(b: &[u8], from: usize, limit: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut k = from;
    while k < limit {
        match b[k] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth > 0 => depth += 1,
            b'}' if depth > 0 => depth -= 1,
            b'{' if depth == 0 => return (k + 1, true),
            b';' if depth == 0 => return (k + 1, false),
            _ => {}
        }
        k += 1;
    }
    (limit, false)
}

// ---------------------------------------------------------------------
// Rule 5: registry-fixture-parity
// ---------------------------------------------------------------------

struct RegistryFixtureParity;

/// The ids registered when the `HABC` v1 container was retired: only
/// these have a (frozen) v1 fixture. The list never grows.
const FROZEN_V1_IDS: [&str; 11] = [
    "habf",
    "fhabf",
    "sharded-habf",
    "sharded-fhabf",
    "bloom",
    "weighted-bloom",
    "xor",
    "blocked-bloom",
    "blocked-habf",
    "binary-fuse",
    "scalable-habf",
];

impl Rule for RegistryFixtureParity {
    fn id(&self) -> &'static str {
        "registry-fixture-parity"
    }
    fn description(&self) -> &'static str {
        "every registry id has a tests/golden/container_<id>_v2.bin fixture \
         (and a frozen _v1 one if it predates v1's retirement) and appears in \
         tests/api_surface.rs"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(reg) = ws.file_ending("crates/core/src/registry.rs") else {
            return;
        };
        let api = ws.read_rel("tests/api_surface.rs").unwrap_or_default();
        let mut seen = Vec::new();
        let raw = &reg.raw;
        let mut i = 0;
        while let Some(pos) = find_sub(raw.as_bytes(), b"id: \"", i) {
            let start = pos + 5;
            let Some(end) = raw[start..].find('"').map(|e| start + e) else {
                break;
            };
            i = end + 1;
            let id = &raw[start..end];
            if id.is_empty() || seen.iter().any(|(s, _)| s == id) {
                continue;
            }
            seen.push((id.to_string(), reg.line_of(pos)));
        }
        for (id, line) in seen {
            let versions: &[&str] = if FROZEN_V1_IDS.contains(&id.as_str()) {
                &["v1", "v2"]
            } else {
                &["v2"]
            };
            for ver in versions {
                let fixture = format!("tests/golden/container_{id}_{ver}.bin");
                if !ws.root().join(&fixture).is_file() {
                    out.push(Finding {
                        rule: self.id(),
                        file: reg.rel.clone(),
                        line,
                        message: format!("registry id `{id}` has no golden fixture `{fixture}`"),
                    });
                }
            }
            if !api.contains(&format!("\"{id}\"")) {
                out.push(Finding {
                    rule: self.id(),
                    file: reg.rel.clone(),
                    line,
                    message: format!("registry id `{id}` is not pinned in tests/api_surface.rs"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 6: wire-frame-parity
// ---------------------------------------------------------------------

struct WireFrameParity;

impl Rule for WireFrameParity {
    fn id(&self) -> &'static str {
        "wire-frame-parity"
    }
    fn description(&self) -> &'static str {
        "every frame_type opcode const has a protocol_fuzz.rs case and a \
         DESIGN.md §10 row"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(proto) = ws.file_ending("crates/serve/src/protocol.rs") else {
            return;
        };
        let fuzz = ws
            .read_rel("crates/serve/tests/protocol_fuzz.rs")
            .unwrap_or_default();
        let design = ws.read_rel("DESIGN.md").unwrap_or_default();
        let section10 = section(&design, "## §10");
        let b = proto.masked.as_bytes();
        let Some(mod_pos) = find_word(b, b"frame_type", 0) else {
            return;
        };
        let Some(open) = (mod_pos..b.len()).find(|&k| b[k] == b'{') else {
            return;
        };
        let close = match_brace(b, open);
        let mut i = open;
        while let Some(pos) = find_word(b, b"const", i) {
            if pos >= close {
                break;
            }
            let mut j = pos + 5;
            while j < close && b[j].is_ascii_whitespace() {
                j += 1;
            }
            let name_start = j;
            while j < close && is_ident(b[j]) {
                j += 1;
            }
            i = j;
            let name = &proto.masked[name_start..j];
            if name.is_empty() {
                continue;
            }
            let line = proto.line_of(pos);
            if !contains_word(&fuzz, name) {
                out.push(Finding {
                    rule: self.id(),
                    file: proto.rel.clone(),
                    line,
                    message: format!("opcode `{name}` has no protocol_fuzz.rs case"),
                });
            }
            if !contains_word(section10, name) {
                out.push(Finding {
                    rule: self.id(),
                    file: proto.rel.clone(),
                    line,
                    message: format!("opcode `{name}` has no DESIGN.md §10 row"),
                });
            }
        }
    }
}

/// The text of the markdown section whose heading starts with `heading`
/// (e.g. `## 10`), up to the next same-level heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let Some(start) = doc
        .lines()
        .scan(0usize, |off, l| {
            let here = *off;
            *off += l.len() + 1;
            Some((here, l))
        })
        .find(|(_, l)| l.starts_with(heading))
        .map(|(off, _)| off)
    else {
        return "";
    };
    let rest = &doc[start..];
    match rest[3..].find("\n## ") {
        Some(e) => &rest[..e + 3],
        None => rest,
    }
}

fn contains_word(haystack: &str, word: &str) -> bool {
    find_word(haystack.as_bytes(), word.as_bytes(), 0).is_some()
}

// ---------------------------------------------------------------------
// Rule 7: no-unwrap-in-serve
// ---------------------------------------------------------------------

struct NoUnwrapInServe;

impl Rule for NoUnwrapInServe {
    fn id(&self) -> &'static str {
        "no-unwrap-in-serve"
    }
    fn description(&self) -> &'static str {
        "connection-handling code in crates/serve/src returns typed errors, \
         never panics"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in ws
            .files()
            .iter()
            .filter(|f| f.rel.contains("crates/serve/src/"))
        {
            for item in f.fns() {
                if f.in_test(item.body.start) {
                    continue;
                }
                for (pos, what) in panic_tokens(f, item, false) {
                    out.push(Finding {
                        rule: self.id(),
                        file: f.rel.clone(),
                        line: f.line_of(pos),
                        message: format!("{what} on a serve path (`{}`)", item.name),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 8: bench-artifact-parity
// ---------------------------------------------------------------------

struct BenchArtifactParity;

impl Rule for BenchArtifactParity {
    fn id(&self) -> &'static str {
        "bench-artifact-parity"
    }
    fn description(&self) -> &'static str {
        "every committed BENCH_*.json has a CI upload step"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let benches = ws.root_bench_artifacts();
        if benches.is_empty() {
            return;
        }
        let ci_rel = ".github/workflows/ci.yml";
        let ci = ws.read_rel(ci_rel);
        for bench in benches {
            let ok = ci
                .as_deref()
                .is_some_and(|c| c.contains(&format!("path: {bench}")));
            if !ok {
                out.push(Finding {
                    rule: self.id(),
                    file: ci_rel.to_string(),
                    line: 1,
                    message: format!(
                        "bench artifact `{bench}` has no `path: {bench}` upload step in CI"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 9: no-block-in-reactor
// ---------------------------------------------------------------------

struct NoBlockInReactor;

/// Blocking calls that must never appear in reactor event-loop code:
/// each one parks the worker thread and stalls every connection it owns.
const BLOCKING_CALLS: [(&str, &str); 5] = [
    (".read_exact(", "`.read_exact(...)`"),
    (".write_all(", "`.write_all(...)`"),
    (".lock()", "`.lock()`"),
    (".recv()", "`.recv()`"),
    (REBUILD_CALL.0, REBUILD_CALL.1),
];

/// A tenant rebuild: a full TPJO build over the members, O(filter size).
/// It blocks the worker two calls deep, so the rule also looks for it in
/// the request handler the workers call (`server.rs`'s `handle_frame`).
const REBUILD_CALL: (&str, &str) = (".rebuild_now(", "`.rebuild_now(...)` (O(filter) work)");

impl Rule for NoBlockInReactor {
    fn id(&self) -> &'static str {
        "no-block-in-reactor"
    }
    fn description(&self) -> &'static str {
        "reactor event-loop code stays nonblocking: no read_exact/write_all/\
         lock/recv/sleep on a worker path, and no rebuild_now in it or in \
         the request handler it calls"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let in_src = |f: &&SourceFile, name: &str| f.rel.ends_with(name) && f.rel.contains("/src/");
        for f in ws.files().iter().filter(|f| in_src(f, "server.rs")) {
            for item in f.fns().iter().filter(|item| item.name == "handle_frame") {
                if f.in_test(item.body.start) {
                    continue;
                }
                let (pat, label) = REBUILD_CALL;
                for pos in occurrences(f, &item.body, pat) {
                    out.push(Finding {
                        rule: self.id(),
                        file: f.rel.clone(),
                        line: f.line_of(pos),
                        message: format!(
                            "blocking {label} in request handler `{}`, which reactor workers call",
                            item.name
                        ),
                    });
                }
            }
        }
        for f in ws.files().iter().filter(|f| in_src(f, "reactor.rs")) {
            for item in f.fns() {
                if f.in_test(item.body.start) {
                    continue;
                }
                let b = f.masked.as_bytes();
                let body = item.body.clone();
                for (pat, label) in BLOCKING_CALLS {
                    for pos in occurrences(f, &body, pat) {
                        out.push(Finding {
                            rule: self.id(),
                            file: f.rel.clone(),
                            line: f.line_of(pos),
                            message: format!("blocking {label} in reactor fn `{}`", item.name),
                        });
                    }
                }
                // `sleep(...)` (any path prefix) parks the whole loop.
                let mut i = body.start;
                while let Some(pos) = find_word(b, b"sleep", i) {
                    if pos >= body.end {
                        break;
                    }
                    i = pos + "sleep".len();
                    if b.get(pos + "sleep".len()) == Some(&b'(') {
                        out.push(Finding {
                            rule: self.id(),
                            file: f.rel.clone(),
                            line: f.line_of(pos),
                            message: format!("blocking `sleep(...)` in reactor fn `{}`", item.name),
                        });
                    }
                }
            }
        }
    }
}

/// Offsets of every `pat` in the masked source within `body`.
fn occurrences(f: &SourceFile, body: &std::ops::Range<usize>, pat: &str) -> Vec<usize> {
    let b = f.masked.as_bytes();
    let mut found = Vec::new();
    let mut i = body.start;
    while let Some(pos) = find_sub(b, pat.as_bytes(), i) {
        if pos >= body.end {
            break;
        }
        found.push(pos);
        i = pos + pat.len();
    }
    found
}
