//! The one JSON implementation behind `manifest.json` and `progress.jsonl`:
//! a value type, a writer with the two layouts those files use, and a strict
//! bounded reader.  (The workspace's vendored serde is API-only, so the
//! encoding that ships is this module.)
//!
//! # What the writer emits
//!
//! Tests and tools edit these files as text and directories written by
//! earlier builds must keep reading back, so the bytes are a contract:
//!
//! * Object fields keep the order they were given in; `": "` separates a
//!   key from its value and `", "` separates neighbours on one line.
//! * [`Json::to_line`] puts a whole value on one line — `{"k": v, "k": v}`,
//!   `[a, b]`, empty containers `{}` / `[]` — with no trailing newline.  A
//!   journal record is one such line.
//! * [`Json::to_document`] lays a root object out one field per line at two
//!   spaces.  A field holding an array that starts with an object opens
//!   `[`, puts each item on its own line (in line form) at four spaces, and
//!   closes `]` at two; every other value is in line form.  The document
//!   ends `}` + newline.
//! * Numbers are written from the text they were built from: integers in
//!   decimal, `f64` through `{:?}` (the shortest decimal that parses back
//!   to the same value).  `None` is `null`.
//! * Strings escape exactly `\"`, `\\`, `\n`, `\r`, `\t`, and every other
//!   control character below U+0020 as lowercase `\u00xx`; `/` and
//!   non-ASCII characters are left as they are.
//!
//! # What the reader accepts
//!
//! [`Json::parse`] takes the RFC 8259 grammar and nothing else — in
//! particular everything the writer above produces — and refuses containers
//! nested more than [`MAX_DEPTH`] deep, so no input can exhaust the stack.
//! Every failure is a [`SparseError::Parse`]: a syntax error carries the
//! 1-based line it occurred on; a schema error raised by a [`Field`]
//! accessor (a missing key, a value of the wrong type) belongs to no single
//! line and carries line 0, as the binary shard readers' errors do.
//! Numbers keep their source text, so a `u64` beyond 2^53 survives exactly,
//! and of a repeated key the first occurrence is the one [`Field::get`]
//! finds.

use std::fmt::Write as _;
use std::str::FromStr;

use kron_sparse::SparseError;

/// How deep containers may nest before the reader refuses the document.
/// The manifest nests three deep; the bound is what caps the recursive
/// descent's stack use whatever the input.
const MAX_DEPTH: usize = 16;

/// A JSON value.  Numbers keep their source text and objects keep document
/// order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(value: u64) -> Json {
        Json::Number(value.to_string())
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Json {
        Json::Number(value.to_string())
    }
}

impl From<f64> for Json {
    /// `{:?}` prints the shortest decimal that parses back to the same
    /// `f64`.  JSON has no spelling for NaN or the infinities.
    fn from(value: f64) -> Json {
        if value.is_finite() {
            Json::Number(format!("{value:?}"))
        } else {
            Json::Null
        }
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::String(value.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An array of anything that converts to a value.
    pub(crate) fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// An object of the given fields, in the given order.
    pub(crate) fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// The value on one line, without a trailing newline.
    pub(crate) fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out);
        out
    }

    /// The value as a document: see the module docs for the layout.
    pub(crate) fn to_document(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Object(fields) if !fields.is_empty() => {
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "{\n  " } else { ",\n  " });
                    write_string(&mut out, key);
                    out.push_str(": ");
                    match value {
                        Json::Array(items) if matches!(items.first(), Some(Json::Object(_))) => {
                            for (j, item) in items.iter().enumerate() {
                                out.push_str(if j == 0 { "[\n    " } else { ",\n    " });
                                item.write_line(&mut out);
                            }
                            out.push_str("\n  ]");
                        }
                        other => other.write_line(&mut out),
                    }
                }
                out.push_str("\n}");
            }
            other => other.write_line(&mut out),
        }
        out.push('\n');
        out
    }

    fn write_line(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::Number(text) => out.push_str(text),
            Json::String(text) => write_string(out, text),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_line(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_line(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document; anything but whitespace after it is an
    /// error.
    pub(crate) fn parse(text: &str) -> Result<Json, SparseError> {
        let mut reader = Reader { text, rest: text };
        let value = reader.value(0)?;
        reader.skip_whitespace();
        if reader.rest.is_empty() {
            Ok(value)
        } else {
            Err(reader.error("trailing content after the JSON document"))
        }
    }

    /// This value under the name the [`Field`] accessors' errors call it by.
    pub(crate) fn named<'a>(&'a self, name: &'a str) -> Field<'a> {
        Field { name, value: self }
    }
}

/// The one place a JSON string is escaped.
fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An error about what a document says rather than how it is spelled: it
/// belongs to no single line.
pub(crate) fn schema_error(message: impl Into<String>) -> SparseError {
    SparseError::Parse {
        line: 0,
        message: message.into(),
    }
}

/// A value of a parsed document together with the name errors report it
/// under: the typed read side of [`Json`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field<'a> {
    name: &'a str,
    value: &'a Json,
}

impl<'a> Field<'a> {
    fn mismatch(self, expected: &str) -> SparseError {
        schema_error(format!("{} must be {expected}", self.name))
    }

    pub(crate) fn string(self) -> Result<String, SparseError> {
        match self.value {
            Json::String(text) => Ok(text.clone()),
            _ => Err(self.mismatch("a JSON string")),
        }
    }

    pub(crate) fn bool(self) -> Result<bool, SparseError> {
        match self.value {
            Json::Bool(value) => Ok(*value),
            _ => Err(self.mismatch("a JSON boolean")),
        }
    }

    /// The number as a `T`, parsed from its source text — so an integer type
    /// refuses a fraction, a sign it cannot hold, or a value out of range.
    pub(crate) fn number<T: FromStr>(self) -> Result<T, SparseError> {
        match self.value {
            Json::Number(text) => text.parse().map_err(|_| {
                let wanted = std::any::type_name::<T>();
                schema_error(format!("{} is not a {wanted}: {text}", self.name))
            }),
            _ => Err(self.mismatch("a JSON number")),
        }
    }

    /// Every item of an array, read by `item` under the array's name.
    pub(crate) fn list<T>(
        self,
        item: impl Fn(Field<'a>) -> Result<T, SparseError>,
    ) -> Result<Vec<T>, SparseError> {
        match self.value {
            Json::Array(items) => items
                .iter()
                .map(|value| item(Field { value, ..self }))
                .collect(),
            _ => Err(self.mismatch("a JSON array")),
        }
    }

    /// `None` for `null`, the field itself for anything else.
    pub(crate) fn nullable(self) -> Option<Field<'a>> {
        (!matches!(self.value, Json::Null)).then_some(self)
    }

    /// The field `key` of an object, if it has one (the first, if several).
    pub(crate) fn find(self, key: &str) -> Option<Field<'a>> {
        let Json::Object(fields) = self.value else {
            return None;
        };
        let (name, value) = fields.iter().find(|(name, _)| name == key)?;
        Some(Field { name, value })
    }

    /// The field `key` of an object, which must have one.
    pub(crate) fn get(self, key: &str) -> Result<Field<'a>, SparseError> {
        match self.value {
            Json::Object(_) => self.find(key).ok_or_else(|| {
                schema_error(format!("{} is missing the \"{key}\" field", self.name))
            }),
            _ => Err(self.mismatch("a JSON object")),
        }
    }

    /// The field `key` read by `read`, or `None` when the object has no such
    /// field or holds `null` there.
    pub(crate) fn optional<T>(
        self,
        key: &str,
        read: impl Fn(Field<'a>) -> Result<T, SparseError>,
    ) -> Result<Option<T>, SparseError> {
        self.find(key)
            .and_then(Field::nullable)
            .map(read)
            .transpose()
    }
}

/// The recursive-descent reader: `rest` is the unread suffix of `text`.
/// It only ever advances `rest` through `str` methods that split on a
/// character boundary they found themselves, so no input can index out of
/// range.
struct Reader<'a> {
    text: &'a str,
    rest: &'a str,
}

impl<'a> Reader<'a> {
    /// A syntax error at the current position, on its 1-based line.
    fn error(&self, message: impl Into<String>) -> SparseError {
        let consumed = self.text.len() - self.rest.len();
        let newlines = self.text.bytes().take(consumed).filter(|&b| b == b'\n');
        SparseError::Parse {
            line: 1 + newlines.count(),
            message: message.into(),
        }
    }

    fn skip_whitespace(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
    }

    /// Consume `token` if it is next.
    fn eat(&mut self, token: &str) -> bool {
        let rest = self.rest.strip_prefix(token);
        self.rest = rest.unwrap_or(self.rest);
        rest.is_some()
    }

    /// Consume and return everything before the first character `stop`
    /// accepts (everything, if there is none).
    fn take_until(&mut self, stop: impl Fn(char) -> bool) -> &'a str {
        let end = self.rest.find(stop).unwrap_or(self.rest.len());
        let (run, rest) = self.rest.split_at_checked(end).unwrap_or((self.rest, ""));
        self.rest = rest;
        run
    }

    fn value(&mut self, depth: usize) -> Result<Json, SparseError> {
        self.skip_whitespace();
        match self.rest.chars().next() {
            Some('"') => Ok(Json::String(self.string()?)),
            Some('-' | '0'..='9') => self.number(),
            Some('{' | '[') if depth >= MAX_DEPTH => {
                Err(self.error(format!("nested deeper than {MAX_DEPTH} containers")))
            }
            _ if self.eat("{") => self.object(depth + 1),
            _ if self.eat("[") => self.array(depth + 1),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            Some(other) => Err(self.error(format!("unexpected character {other:?}"))),
            None => Err(self.error("unexpected end of JSON")),
        }
    }

    /// After an item of a container: `true` at `close`, `false` at a comma
    /// (either is consumed).
    fn closes(&mut self, close: &str) -> Result<bool, SparseError> {
        self.skip_whitespace();
        if self.eat(close) {
            Ok(true)
        } else if self.eat(",") {
            Ok(false)
        } else {
            Err(self.error(format!("expected ',' or '{close}'")))
        }
    }

    /// The items of an array whose `[` is consumed; they nest at `depth`.
    fn array(&mut self, depth: usize) -> Result<Json, SparseError> {
        let mut items = Vec::new();
        self.skip_whitespace();
        let mut done = self.eat("]");
        while !done {
            items.push(self.value(depth)?);
            done = self.closes("]")?;
        }
        Ok(Json::Array(items))
    }

    /// The fields of an object whose `{` is consumed; they nest at `depth`.
    fn object(&mut self, depth: usize) -> Result<Json, SparseError> {
        let mut fields = Vec::new();
        self.skip_whitespace();
        let mut done = self.eat("}");
        while !done {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            if !self.eat(":") {
                return Err(self.error("expected ':' after an object key"));
            }
            fields.push((key, self.value(depth)?));
            done = self.closes("}")?;
        }
        Ok(Json::Object(fields))
    }

    /// The one place a JSON number is parsed: the longest run of number
    /// characters, which must then spell
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, SparseError> {
        let text = self.take_until(|c| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'));
        let digits = |run: &str| !run.is_empty() && run.bytes().all(|b| b.is_ascii_digit());
        let unsigned = text.strip_prefix('-').unwrap_or(text);
        let (mantissa, exponent) = match unsigned.split_once(['e', 'E']) {
            Some((mantissa, exponent)) => (mantissa, Some(exponent)),
            None => (unsigned, None),
        };
        let (integer, fraction) = match mantissa.split_once('.') {
            Some((integer, fraction)) => (integer, Some(fraction)),
            None => (mantissa, None),
        };
        let valid = digits(integer)
            && (integer == "0" || !integer.starts_with('0'))
            && fraction.is_none_or(digits)
            && exponent.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)));
        if valid {
            Ok(Json::Number(text.to_string()))
        } else {
            Err(self.error(format!("invalid number {text}")))
        }
    }

    fn string(&mut self) -> Result<String, SparseError> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Everything up to the next quote, escape or control character
            // is copied whole.
            out.push_str(self.take_until(|c| matches!(c, '"' | '\\') || c < ' '));
            if self.eat("\"") {
                return Ok(out);
            } else if self.eat("\\") {
                out.push(self.escape()?);
            } else if self.rest.is_empty() {
                return Err(self.error("unterminated string"));
            } else {
                return Err(self.error("raw control character in a string"));
            }
        }
    }

    /// The character an escape stands for; the backslash is consumed.
    fn escape(&mut self) -> Result<char, SparseError> {
        if self.eat("u") {
            return self.unicode_escape();
        }
        let mut chars = self.rest.chars();
        let decoded = match chars.next() {
            Some(same @ ('"' | '\\' | '/')) => same,
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('b') => '\u{0008}',
            Some('f') => '\u{000c}',
            _ => return Err(self.error("unknown escape in a string")),
        };
        self.rest = chars.as_str();
        Ok(decoded)
    }

    /// What follows `\u`: one code unit, or a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, SparseError> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // A high surrogate is half a character: its low half must follow.
            if !self.eat("\\u") {
                return Err(self.error("lone high surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("high surrogate not followed by a low surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("lone low surrogate"))
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, SparseError> {
        let parsed = self.rest.split_at_checked(4).and_then(|(digits, rest)| {
            let mut digits = digits.chars();
            let code = digits.try_fold(0, |code, digit| Some(code * 16 + digit.to_digit(16)?))?;
            Some((code, rest))
        });
        let Some((code, rest)) = parsed else {
            return Err(self.error("\\u must be followed by four hex digits"));
        };
        self.rest = rest;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_error(text: &str) -> (usize, String) {
        match Json::parse(text) {
            Err(SparseError::Parse { line, message }) => (line, message),
            other => panic!("{text:?} must be a parse error, got {other:?}"),
        }
    }

    #[test]
    fn what_the_writer_never_produces_is_refused_with_its_line() {
        // (document, the 1-based line the error is on)
        let refused = [
            ("", 1),
            ("\n\n", 3),
            ("nul", 1),
            ("truefalse", 1),
            ("[1,]", 1),
            ("[,1]", 1),
            ("[1 2]", 1),
            ("{\"a\" 1}", 1),
            ("{\"a\": 1,}", 1),
            ("{a: 1}", 1),
            ("{\n  \"a\": 1,\n  \"b\": 2\n", 4),
            ("{\n  \"a\": 1,\n  \"b\": +2\n}", 3),
            ("{\n  \"a\": \"unterminated\n}", 2),
            ("[\"tab\there\"]", 1),
            ("\"\\x41\"", 1),
            ("\"\\", 1),
            ("\"\\u00e\"", 1),
            ("\"\\u00é\"", 1),
            ("1 2", 1),
            ("[]\n[]", 2),
            ("\u{feff}{}", 1),
        ];
        for (text, line) in refused {
            assert_eq!(parse_error(text).0, line, "{text:?}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar_and_keep_their_text() {
        for text in ["-0", "0.0", "1.5e-3", "1E+2", "18446744073709551615", "0e0"] {
            assert_eq!(Json::parse(text).unwrap(), Json::Number(text.to_string()));
        }
        for text in [
            "--", "-", "1e", "1e+", "01", "-01", "1.", ".5", "1.e3", "+1", "1-2", "1e2e3", "0x10",
            "1.2.3",
        ] {
            assert_eq!(parse_error(text).0, 1, "{text}");
        }
        let number = Json::parse("[18446744073709551615, 1.5, -1]").unwrap();
        let items = number.named("n").list(Ok).unwrap();
        assert_eq!(items[0].number::<u64>().unwrap(), u64::MAX);
        assert!(items[0].number::<usize>().is_ok() == (usize::BITS == 64));
        assert_eq!(items[1].number::<f64>().unwrap(), 1.5);
        assert!(items[1].number::<u64>().is_err(), "a fraction is not a u64");
        assert!(items[2].number::<u64>().is_err(), "a sign is not a u64");
        assert_eq!(Json::from(f64::NAN), Json::Null);
    }

    #[test]
    fn nesting_is_bounded_by_the_depth_constant() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let (line, message) = parse_error(&nested(MAX_DEPTH + 1));
        assert_eq!(line, 1);
        assert!(message.contains("nested deeper than 16"), "{message}");
        // Unclosed, and far past any stack: still the depth error.
        for opener in ["[", "{\"a\":", "[{\"a\": "] {
            let (_, message) = parse_error(&opener.repeat(1 << 18));
            assert!(message.contains("nested deeper than"), "{message}");
        }
    }

    #[test]
    fn accessors_name_the_field_they_refuse() {
        let json = Json::parse("{\"a\": 1, \"a\": 2, \"s\": \"x\", \"n\": null}").unwrap();
        let object = json.named("record");
        assert_eq!(object.get("a").unwrap().number::<u64>().unwrap(), 1);
        assert_eq!(object.optional("n", Field::string).unwrap(), None);
        assert_eq!(object.optional("absent", Field::string).unwrap(), None);
        assert_eq!(object.optional("s", Field::string).unwrap().unwrap(), "x");
        let message = |error: SparseError| error.to_string();
        let missing = message(object.get("b").unwrap_err());
        assert!(
            missing.contains("record is missing the \"b\" field"),
            "{missing}"
        );
        let mistyped = message(object.get("s").unwrap().number::<u64>().unwrap_err());
        assert!(mistyped.contains("s must be a JSON number"), "{mistyped}");
        let not_object = message(object.get("s").unwrap().get("x").unwrap_err());
        assert!(
            not_object.contains("s must be a JSON object"),
            "{not_object}"
        );
        assert!(object.get("a").unwrap().list(Field::string).is_err());
        assert!(object.get("a").unwrap().bool().is_err());
    }

    #[test]
    fn both_layouts_follow_the_documented_rules() {
        let value = Json::object([
            ("empty", Json::array(Vec::<u64>::new())),
            ("scalars", Json::array([1u64, 2])),
            ("none", Option::<u64>::None.into()),
            ("nested", Json::object([("k", Json::array(["v"]))])),
            (
                "records",
                Json::array([Json::object([("a", 1u64.into())]), Json::object([])]),
            ),
        ]);
        assert_eq!(
            value.to_line(),
            "{\"empty\": [], \"scalars\": [1, 2], \"none\": null, \
             \"nested\": {\"k\": [\"v\"]}, \"records\": [{\"a\": 1}, {}]}"
        );
        assert_eq!(
            value.to_document(),
            "{\n  \"empty\": [],\n  \"scalars\": [1, 2],\n  \"none\": null,\n  \
             \"nested\": {\"k\": [\"v\"]},\n  \"records\": [\n    {\"a\": 1},\n    {}\n  ]\n}\n"
        );
        assert_eq!(Json::object([]).to_document(), "{}\n");
        assert_eq!(Json::parse(&value.to_document()).unwrap(), value);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The bytes JSON syntax is made of, plus a control and half an `é`.
        const JSONISH: &[u8] = b"[]{}\":,\\ \n-+.0123456789eEtrufalsn/b\x01\xc3";

        /// Strings that exercise every branch of the escaper.
        const PALETTE: [&str; 10] = [
            "",
            "plain",
            "\"",
            "\\",
            "\n\r\t",
            "\u{0}\u{1}\u{1f}",
            "é",
            "😀",
            "\u{2028}",
            "/",
        ];

        /// A value tree at most `depth` containers deep, drawn from `seeds`.
        fn tree(seeds: &mut std::vec::IntoIter<u64>, depth: usize) -> Json {
            let text = |seed: u64| PALETTE[(seed % 10) as usize].to_string();
            let Some(seed) = seeds.next() else {
                return Json::Null;
            };
            let width = (seed >> 8) as usize % 4;
            match seed % 8 {
                0 => Json::Null,
                1 => Json::Bool(seed & 256 == 0),
                2 => Json::from(seed),
                3 => Json::from(f64::from_bits(seeds.next().unwrap_or(0))),
                4 | 5 => Json::String(text(seed >> 8) + &text(seed >> 16)),
                6 if depth > 0 => Json::Array((0..width).map(|_| tree(seeds, depth - 1)).collect()),
                7 if depth > 0 => Json::Object(
                    (0..width)
                        .map(|i| (text(seed >> (8 * i + 16)), tree(seeds, depth - 1)))
                        .collect(),
                ),
                _ => Json::from(u64::MAX - seed),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_text_parses_or_fails_typed_and_reparses_equal(
                bytes in proptest::collection::vec(any::<u8>(), 0..200),
                seeds in proptest::collection::vec(any::<u64>(), 1..40),
                at in any::<usize>(),
                pick in 0usize..JSONISH.len(),
            ) {
                // Noise almost never parses; a document with one byte
                // swapped for a JSON-ish one quite often still does.
                let mut damaged = tree(&mut seeds.into_iter(), 3).to_line().into_bytes();
                let at = at % damaged.len();
                damaged[at] = JSONISH[pick];
                for raw in [bytes, damaged] {
                    let text = String::from_utf8_lossy(&raw);
                    match Json::parse(&text) {
                        Ok(value) => prop_assert_eq!(Json::parse(&value.to_line()), Ok(value)),
                        Err(SparseError::Parse { line, .. }) => {
                            prop_assert!((1..=text.lines().count() + 1).contains(&line));
                        }
                        Err(other) => prop_assert!(false, "untyped failure {other:?}"),
                    }
                }
            }

            #[test]
            fn generated_trees_survive_both_layouts(
                seeds in proptest::collection::vec(any::<u64>(), 1..80),
            ) {
                let value = tree(&mut seeds.into_iter(), 4);
                prop_assert_eq!(Json::parse(&value.to_line()), Ok(value.clone()));
                prop_assert_eq!(Json::parse(&value.to_document()), Ok(value));
            }
        }
    }
}
