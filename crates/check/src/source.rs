//! A hand-rolled lexical model of Rust source, in the same offline spirit
//! as `rt/json.rs`: no `syn`, no proc-macro machinery — a single-pass
//! state machine that is exactly strong enough for the repo's lint rules.
//!
//! For every physical line it separates *code* (with string/char contents
//! blanked so rules never match inside literals) from *comments* (so the
//! `// SAFETY:` convention can be checked). It also marks `#[cfg(test)]`
//! regions so rules that only govern production code can skip tests.

/// One physical source line, split into the channels the rules consume.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// The original line text (allowlist needles match against this, so
    /// they can name string contents the `code` channel blanks out).
    pub raw: String,
    /// Code with comments removed and string/char literal contents blanked.
    pub code: String,
    /// Comment text on this line (`//`/`/* */` bodies, doc comments).
    pub comment: String,
    /// Whether this line sits inside a `#[cfg(test)]` module.
    pub test: bool,
}

/// A scanned file: path (repo-relative) plus per-line channels.
#[derive(Debug)]
pub struct SourceFile {
    pub path: String,
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Scans `text` into lines. `path` is kept verbatim for diagnostics.
    pub fn scan(path: &str, text: &str) -> Self {
        let mut lines = split_channels(text);
        for (line, raw) in lines.iter_mut().zip(text.lines()) {
            line.raw = raw.to_string();
        }
        mark_test_regions(&mut lines);
        Self {
            path: path.to_string(),
            lines,
        }
    }

    /// 1-indexed iteration over lines.
    pub fn numbered(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines.iter().enumerate().map(|(i, l)| (i + 1, l))
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    Str,
    RawStr(usize),
    BlockComment(usize),
}

/// Splits source text into per-line code/comment channels.
fn split_channels(text: &str) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment: rest of the line is comment channel.
                    let mut j = i;
                    while j < chars.len() && chars[j] != '\n' {
                        cur.comment.push(chars[j]);
                        j += 1;
                    }
                    i = j;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                // Raw strings: r"..", r#".."#, br".." etc.
                if (c == 'r' || c == 'b')
                    && !prev_is_ident(&cur.code)
                    && is_raw_string_start(&chars, i)
                {
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    // chars[j] is the opening quote.
                    cur.code.push('"');
                    state = State::RawStr(hashes);
                    i = j + 1;
                    continue;
                }
                // Char literal vs lifetime: 'x' / '\n' are literals, 'a in
                // `&'a str` is not.
                if c == '\'' {
                    if let Some(end) = char_literal_end(&chars, i) {
                        cur.code.push_str("' '");
                        i = end;
                        continue;
                    }
                }
                cur.code.push(c);
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    // Escapes cannot end the literal.
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            State::BlockComment(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    cur.comment.push_str("*/");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        out.push(cur);
    }
    out
}

/// Whether the last code char continues an identifier (then `r`/`b` is part
/// of a name like `for`, not a raw-string prefix).
fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Detects `r"`, `r#…"`, `br"`, `br#…"` at position `i`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    if chars.get(i) == Some(&'b') {
        if chars.get(j) != Some(&'r') {
            return false;
        }
        j += 1;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// If a char literal starts at `i` (which holds `'`), returns the index one
/// past its closing quote; `None` for lifetimes.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escaped char: scan to the next unescaped quote (covers \u{..}).
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            (chars.get(j) == Some(&'\'')).then_some(j + 1)
        }
        _ => (chars.get(i + 2) == Some(&'\'')).then_some(i + 3),
    }
}

/// Marks every line inside a `#[cfg(test)]`-attributed block as test code.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i32 = 0;
    let mut armed: Option<i32> = None; // depth at which #[cfg(test)] appeared
    let mut test_end: Option<i32> = None; // exit depth of the active region
    for line in lines.iter_mut() {
        let depth_before = depth;
        let opens = line.code.matches('{').count() as i32;
        let closes = line.code.matches('}').count() as i32;
        depth += opens - closes;
        if let Some(end) = test_end {
            line.test = true;
            if depth <= end {
                test_end = None;
            }
            continue;
        }
        if let Some(at) = armed {
            // Waiting for the attributed item's block to open.
            if depth > at {
                line.test = true;
                test_end = Some(at);
                armed = None;
                if depth <= at {
                    test_end = None;
                }
            } else if line.code.trim().is_empty() || line.code.contains("#[") {
                // Attribute stacking / blank lines between attr and item.
            } else if depth < at {
                armed = None; // attribute never got a block; disarm
            }
            continue;
        }
        if line.code.contains("#[cfg(test)]") {
            line.test = true;
            armed = Some(depth_before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked() {
        let f = SourceFile::scan("x.rs", "let s = \"a.unwrap()\"; s.len();\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("s.len()"));
    }

    #[test]
    fn comments_split_off() {
        let f = SourceFile::scan("x.rs", "foo(); // SAFETY: fine\nbar();\n");
        assert!(f.lines[0].comment.contains("SAFETY: fine"));
        assert!(!f.lines[0].code.contains("SAFETY"));
        assert!(f.lines[1].code.contains("bar"));
    }

    #[test]
    fn block_comments_nest() {
        let f = SourceFile::scan("x.rs", "a(); /* x /* y */ z */ b();\n");
        assert!(f.lines[0].code.contains("a()"));
        assert!(f.lines[0].code.contains("b()"));
        assert!(!f.lines[0].code.contains('z'));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = SourceFile::scan("x.rs", "let c = '\"'; fn f<'a>(x: &'a str) {}\n");
        // The quote inside the char literal must not open a string.
        assert!(f.lines[0].code.contains("fn f<'a>"));
        let g = SourceFile::scan("x.rs", "let c = '\\n'; g();\n");
        assert!(g.lines[0].code.contains("g()"));
    }

    #[test]
    fn raw_strings() {
        let f = SourceFile::scan("x.rs", "let s = r#\"panic!(\"x\")\"#; h();\n");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].code.contains("h()"));
    }

    #[test]
    fn multiline_strings_stay_literal() {
        let f = SourceFile::scan("x.rs", "let s = \"a\nb.unwrap()\nc\"; done();\n");
        assert!(f.lines.iter().all(|l| !l.code.contains("unwrap")));
        assert!(f.lines[2].code.contains("done()"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn prod2() {}\n";
        let f = SourceFile::scan("x.rs", src);
        assert!(!f.lines[0].test);
        assert!(f.lines[1].test && f.lines[2].test && f.lines[3].test && f.lines[4].test);
        assert!(!f.lines[5].test);
    }
}
