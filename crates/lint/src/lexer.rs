//! A lightweight, comment- and string-aware lexer for Rust sources.
//!
//! The container has no registry access, so `kron-lint` cannot lean on
//! `syn`; instead this module tokenises just enough of the language for
//! the rule engine: identifiers and punctuation survive as tokens, while
//! string/char/numeric literals and comments are consumed (so a rule
//! never fires on the *contents* of a string or a doc comment).  Line
//! comments are captured separately because they carry the inline
//! suppression syntax and the `#[allow]` justification requirement.

use std::collections::BTreeSet;

/// One surviving token: an identifier (with its text), a single
/// punctuation character, or a string literal (with its raw, unescaped
/// source text).  Numeric/char literals and comments are consumed by the
/// lexer and never appear here.  No rule reads a string literal's
/// content, and because literals are a distinct token kind no
/// identifier-matching rule can ever fire on string *contents*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    Ident(String),
    Punct(char),
    /// Raw source text between the quotes, escapes left as written
    /// (`\"` stays two characters).
    Str(String),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub line: u32,
    pub kind: TokKind,
}

impl Token {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A captured `//` line comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub line: u32,
    /// Comment text including the leading `//`.
    pub text: String,
    /// True when nothing but whitespace preceded the comment on its line
    /// (a standalone comment also covers the line below it for
    /// suppression and justification purposes).
    pub standalone: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    /// Every `//` comment, in order.
    pub line_comments: Vec<Comment>,
    /// Every line touched by any comment (line or block, including doc
    /// comments) — used by the `#[allow]`-justification rule.
    pub comment_lines: BTreeSet<u32>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex a source file.  The lexer is resilient by construction: malformed
/// input can only cause tokens to be dropped, never a panic.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_code = false;

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.comment_lines.insert(line);
                out.line_comments.push(Comment {
                    line,
                    text,
                    standalone: !line_has_code,
                });
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Nested block comment; every spanned line counts as a
                // comment line.
                out.comment_lines.insert(line);
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        line_has_code = false;
                        out.comment_lines.insert(line);
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 1;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 1;
                    }
                    i += 1;
                }
            }
            '"' => {
                line_has_code = true;
                let str_line = line;
                let end = skip_string(&chars, i, &mut line);
                push_str_token(&mut out, &chars, i + 1, end, 1, str_line);
                i = end;
            }
            '\'' => {
                line_has_code = true;
                i = skip_char_or_lifetime(&chars, i);
            }
            c if is_ident_start(c) => {
                line_has_code = true;
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                // Raw strings (`r"..."`, `r#"..."#`, `br#"..."#`), byte
                // strings (`b"..."`) and byte chars (`b'x'`) wear an
                // identifier-shaped prefix; route them to the literal
                // skippers so their contents never become tokens.
                if (ident == "r" || ident == "br") && i < n && (chars[i] == '"' || chars[i] == '#')
                {
                    let mut hashes = 0usize;
                    while i + hashes < n && chars[i + hashes] == '#' {
                        hashes += 1;
                    }
                    if i + hashes < n && chars[i + hashes] == '"' {
                        let str_line = line;
                        let content_start = i + hashes + 1;
                        let end = skip_raw_string(&chars, content_start, hashes, &mut line);
                        push_str_token(&mut out, &chars, content_start, end, 1 + hashes, str_line);
                        i = end;
                        continue;
                    }
                    if ident == "r" && hashes == 1 {
                        // Raw identifier `r#name`: keep the name.
                        i += 1;
                        let rs = i;
                        while i < n && is_ident_continue(chars[i]) {
                            i += 1;
                        }
                        let name: String = chars[rs..i].iter().collect();
                        out.tokens.push(Token {
                            line,
                            kind: TokKind::Ident(name),
                        });
                        continue;
                    }
                }
                if ident == "b" && i < n && chars[i] == '"' {
                    let str_line = line;
                    let end = skip_string(&chars, i, &mut line);
                    push_str_token(&mut out, &chars, i + 1, end, 1, str_line);
                    i = end;
                    continue;
                }
                if ident == "b" && i < n && chars[i] == '\'' {
                    i = skip_char_or_lifetime(&chars, i);
                    continue;
                }
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Ident(ident),
                });
            }
            '0'..='9' => {
                line_has_code = true;
                // Swallow the whole numeric literal, including type
                // suffixes, hex digits, and `1.5e-3`-style exponents
                // (the trailing sign is left as punctuation, harmless).
                while i < n && (is_ident_continue(chars[i]) || chars[i] == '.') {
                    // `0..8` is a range, not a float: stop at `..`.
                    if chars[i] == '.' && i + 1 < n && chars[i + 1] == '.' {
                        break;
                    }
                    i += 1;
                }
            }
            other => {
                line_has_code = true;
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Punct(other),
                });
                i += 1;
            }
        }
    }
    out
}

/// Append a [`TokKind::Str`] token for a literal whose content starts at
/// `content_start` and whose skipper returned `end` (the index just past
/// the closing delimiter, `delim_len` characters long).  An unterminated
/// literal at end of input keeps whatever content it had.
fn push_str_token(
    out: &mut Lexed,
    chars: &[char],
    content_start: usize,
    end: usize,
    delim_len: usize,
    line: u32,
) {
    let content_end = end
        .saturating_sub(delim_len)
        .clamp(content_start, chars.len());
    out.tokens.push(Token {
        line,
        kind: TokKind::Str(chars[content_start..content_end].iter().collect()),
    });
}

/// Skip a `"..."` string starting at the opening quote; returns the index
/// just past the closing quote.
fn skip_string(chars: &[char], open: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut i = open + 1;
    while i < n {
        match chars[i] {
            '\\' => {
                // A `\` line continuation still ends the physical line.
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string whose opening quote has already been consumed;
/// `hashes` is the number of `#` characters in the delimiter.
fn skip_raw_string(chars: &[char], mut i: usize, hashes: usize, line: &mut u32) -> usize {
    let n = chars.len();
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
        } else if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if i + 1 + k >= n || chars[i + 1 + k] != '#' {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Skip either a lifetime (`'a`) or a char literal (`'x'`, `'\n'`,
/// `'\u{1F600}'`) starting at the apostrophe.  Lifetimes produce no
/// token; char literal contents are consumed.
fn skip_char_or_lifetime(chars: &[char], open: usize) -> usize {
    let n = chars.len();
    let j = open + 1;
    if j >= n {
        return n;
    }
    if chars[j] == '\\' {
        // Escaped char literal: `'\n'`, `'\''`, `'\u{..}'`.
        let mut i = j + 2;
        if i <= n && chars.get(i - 1) == Some(&'u') && chars.get(i) == Some(&'{') {
            while i < n && chars[i] != '}' {
                i += 1;
            }
            i += 1;
        }
        while i < n && chars[i] != '\'' {
            i += 1;
        }
        return (i + 1).min(n);
    }
    if is_ident_start(chars[j]) || chars[j].is_ascii_digit() {
        // `'a'` is a char literal, `'a` (no closing quote after the
        // identifier) is a lifetime.
        let mut k = j;
        while k < n && is_ident_continue(chars[k]) {
            k += 1;
        }
        if k < n && chars[k] == '\'' {
            return k + 1;
        }
        return k;
    }
    // Single non-identifier character: `'+'`, `'⊗'`.
    if j + 1 < n && chars[j + 1] == '\'' {
        return j + 2;
    }
    j + 1
}

/// Mark every token that lives inside a `#[cfg(test)]` item (almost
/// always `mod tests { .. }`) so rules can exempt test code without a
/// full parse.  Items behind `#[test]` are likewise masked.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let attr_start = i;
            if let Some((attr_end, is_test)) = scan_attribute(tokens, i) {
                if is_test {
                    let mut j = attr_end + 1;
                    // Skip any further attributes on the same item.
                    while j + 1 < tokens.len()
                        && tokens[j].is_punct('#')
                        && tokens[j + 1].is_punct('[')
                    {
                        match scan_attribute(tokens, j) {
                            Some((e, _)) => j = e + 1,
                            None => break,
                        }
                    }
                    let end = skip_item(tokens, j);
                    for m in mask.iter_mut().take(end.min(tokens.len())).skip(attr_start) {
                        *m = true;
                    }
                    i = end;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Scan an attribute starting at its `#`; returns the index of the
/// closing `]` and whether the attribute gates test code.  Exactly two
/// forms do: `#[test]`, and a `#[cfg(..)]` whose predicate names `test`
/// and contains no `not` and no `any` (`#[cfg(test)]`,
/// `#[cfg(all(test, ..))]`).  A predicate with `not(..)` or `any(..)`
/// anywhere in it, such as `#[cfg(any(test, feature = "x"))]`, can hold
/// in a non-test build, so its item stays under every rule.
fn scan_attribute(tokens: &[Token], hash: usize) -> Option<(usize, bool)> {
    let mut i = hash + 1;
    if i < tokens.len() && tokens[i].is_punct('!') {
        i += 1;
    }
    if i >= tokens.len() || !tokens[i].is_punct('[') {
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    let mut first_ident: Option<&str> = None;
    let mut saw_test = false;
    let mut saw_not_or_any = false;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    // `#[cfg(not(test))]` and `#[cfg(any(test, ..))]`
                    // also gate shipped code; the coarse check keeps
                    // them unmasked.
                    let gates_test = match first_ident {
                        Some("cfg") => saw_test && !saw_not_or_any,
                        Some("test") => true,
                        _ => false,
                    };
                    return Some((i, gates_test));
                }
            }
            TokKind::Ident(name) => {
                if first_ident.is_none() && i > open {
                    first_ident = Some(name);
                }
                if name == "test" {
                    saw_test = true;
                }
                if name == "not" || name == "any" {
                    saw_not_or_any = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Skip one item starting at `start` (after its attributes): the item
/// ends at a `;` outside any braces, or at the close of its first brace
/// block.  Returns the index just past the item.
fn skip_item(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            TokKind::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of(src: &str, name: &str) -> u32 {
        lex(src)
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, TokKind::Ident(s) if s == name))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    #[test]
    fn string_line_continuation_still_counts_the_newline() {
        // A `\` at end of line inside a string literal swallows the
        // newline for the *string*, but the physical line count must
        // still advance or every later diagnostic drifts upward.
        let src = "let s = \"first \\\n        second\";\nafter();\n";
        assert_eq!(line_of(src, "after"), 3);
    }

    #[test]
    fn string_literals_survive_as_str_tokens_with_raw_content() {
        let src = "let a = \"{\\\"kind\\\": \\\"run\\\"}\";\nlet b = r#\"raw \"text\"\"#;\nlet c = b\"bytes\";\n";
        let strs: Vec<(u32, String)> = lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some((t.line, s.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            strs,
            vec![
                (1, "{\\\"kind\\\": \\\"run\\\"}".to_string()),
                (2, "raw \"text\"".to_string()),
                (3, "bytes".to_string()),
            ]
        );
    }

    #[test]
    fn multiline_strings_comments_and_raw_strings_keep_line_numbers() {
        let src =
            "let a = \"one\ntwo\";\n/* block\ncomment */\nlet b = r#\"raw\nstring\"#;\nlast();\n";
        assert_eq!(line_of(src, "last"), 7);
    }
}
