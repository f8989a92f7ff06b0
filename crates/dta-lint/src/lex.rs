//! A minimal Rust lexer: just enough structure for the lint rules.
//!
//! The rules only ever reason about *identifier and punctuation tokens
//! outside comments and literals*. So the lexer does not classify keywords,
//! parse numbers, or build a syntax tree — it produces a flat token stream
//! with line numbers. Brace-level structure
//! (`#[cfg(test)]` regions, `impl` blocks) is recovered from the token
//! stream by [`crate::rules`].
//!
//! Handled correctly because getting them wrong miscounts `code_lines` and
//! loses `#[cfg(test)]` regions in exactly the files this tool reads:
//!
//! * nested block comments (`/* /* */ */` — legal Rust),
//! * cooked strings with escapes, byte strings, raw strings `r#"…"#` of
//!   any hash depth (the corpus renderer and JSON writers are full of
//!   quoted braces and `#[cfg(test)]`-looking text),
//! * char literals vs. lifetimes (`'a'` vs. `'static` — a naive quote
//!   matcher would swallow code after `&'static str`).

/// One lexed token: identifiers and single-character punctuation.
///
/// Literals (string/char/number) are consumed but not emitted — no rule
/// matches on them. Multi-character operators arrive as their constituent
/// characters (`::` is `:` `:`), which is fine for sequence matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text: an identifier, or a one-character punctuation string.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Token {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.text == s && self.text.chars().next().is_some_and(is_ident_start)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lex `src` into tokens. Never fails: unterminated literals
/// or comments simply consume to end-of-file (the compiler, not the
/// linter, is the arbiter of well-formedness).
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => i = skip_cooked_string(&b, i, &mut line),
            '\'' => {
                // Char literal or lifetime. A char literal closes with a
                // quote after one (possibly escaped) character; a lifetime
                // is `'ident` with no closing quote.
                if b.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: '\n', '\u{…}', '\\', …
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&'\'')
                    && b.get(i + 1).is_some_and(|c| *c != '\'')
                {
                    i += 3; // 'x'
                } else {
                    // Lifetime: skip the quote and the identifier.
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                // Raw / byte string prefixes: `r"…"`, `r#"…"#`, `b"…"`,
                // `br#"…"#`. The prefix lexes as an identifier that ends
                // immediately before the quote (or hash run).
                if matches!(text.as_str(), "r" | "b" | "br" | "rb") {
                    let mut j = i;
                    let mut hashes = 0usize;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        if hashes == 0 && !text.contains('r') {
                            // b"…": cooked escapes apply.
                            i = skip_cooked_string(&b, j, &mut line);
                        } else {
                            i = skip_raw_string(&b, j, hashes, &mut line);
                        }
                        continue;
                    }
                }
                out.push(Token { text, line });
            }
            _ if c.is_ascii_digit() => {
                // Numbers (including 0x…, 1_000u64, 1.5e-3): consume the
                // alphanumeric run plus embedded `.` so the float dot is
                // not emitted as punctuation (it is not a method call).
                while i < b.len()
                    && (is_ident_continue(b[i])
                        || b[i] == '.' && b.get(i + 1).is_none_or(|n| n.is_ascii_digit()))
                {
                    i += 1;
                }
            }
            _ if c.is_whitespace() => i += 1,
            _ => {
                out.push(Token { text: c.to_string(), line });
                i += 1;
            }
        }
    }
    out
}

/// Skip a `"…"` string starting at the opening quote; returns the index
/// past the closing quote.
fn skip_cooked_string(b: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string whose opening quote is at `i` with `hashes` leading
/// `#`s; returns the index past the closing delimiter.
fn skip_raw_string(b: &[char], mut i: usize, hashes: usize, line: &mut usize) -> usize {
    i += 1;
    while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
            i += 1;
        } else if b[i] == '"' && (1..=hashes).all(|k| b.get(i + k) == Some(&'#')) {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.text.chars().next().is_some_and(is_ident_start))
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_skipped() {
        let src = r##"
            // Instant in a comment
            /* HashMap /* nested */ still comment */
            let x = "Instant::now()";
            let y = r#"thread_rng"#;
            let z = b"SystemTime";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|t| t == "Instant" || t == "HashMap"));
        assert!(!ids.iter().any(|t| t == "thread_rng" || t == "SystemTime"));
    }

    #[test]
    fn lifetimes_do_not_swallow_code() {
        let ids = idents("fn f(x: &'static str, y: Instant) {}");
        assert!(ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn char_literals() {
        let ids = idents("let c = 'x'; let n = '\\n'; after('q');");
        assert!(ids.contains(&"after".to_string()));
        assert!(!ids.contains(&"x".to_string()));
    }

    #[test]
    fn line_numbers_track() {
        let lx = lex("a\nb\n\nc");
        let lines: Vec<usize> = lx.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numeric_float_dot_not_punct() {
        let lx = lex("let x = 1.5e3 + 2.0;");
        assert!(!lx.iter().any(|t| t.text == "."));
    }
}
