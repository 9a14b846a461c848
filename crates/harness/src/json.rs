//! The one codec: how a typed value maps to **canonical JSON**, and back.
//!
//! *Canonical* means a value has exactly one byte form: compact (no
//! whitespace), fields in the order the encoder emits them, strings escaped
//! by one body (`"`, `\\`, `\n`, `\t`, `\r`, other control characters as
//! `\u00xx`; everything else verbatim UTF-8), `u64`s as exact decimal
//! tokens, `f64`s through [`json_num`] (integral values without a fraction,
//! the rest in Rust's shortest round-trip form), and an optional field that
//! holds its documented default **omitted** rather than written out.  Those
//! bytes are load-bearing — they are hashed or compared by:
//!
//! * the **spec fingerprint** ([`CampaignSpec::fingerprint`], the red-team
//!   spec's twin): FNV-1a over the spec text, whose per-def objects are
//!   canonical (the surrounding one-entry-per-line layout is fixed by
//!   `CampaignSpec::to_json`);
//! * the **report fingerprint** `campaignd` serves: FNV-1a over a job's
//!   `kind:"cell-record"` lines;
//! * the **artifact-cache key**: the canonical graph and compiler objects of
//!   a `(graph, compiler)` pair;
//! * the **trajectory and `cells.log` lines**: `--resume`, shard merging and
//!   crash recovery keep and re-emit lines verbatim, so a line must depend
//!   only on its cell;
//! * the **server documents** (`job-status`, `job-list`, `query`, `error`,
//!   `job-state`): the server == CLI identity is checked byte for byte.
//!
//! Every encoder in the workspace writes through [`ObjectWriter`] /
//! [`ArrayWriter`] — streaming, straight into a `String`, byte-identical to
//! rendering the same fields as a [`JsonValue::Obj`] — and every decoder
//! reads a parsed [`JsonValue`] through [`Reader`], which owns the
//! get-coerce-or-`Missing` chain and the dotted error path.  `JsonValue` is
//! the parse tree only; nothing builds one for output.  Numbers keep their
//! **raw token text** (`JsonValue::Num` holds the string), so 64-bit seeds
//! round trip exactly instead of being squeezed through an `f64`.  Unknown
//! fields are ignored.  The workspace is offline — no serde.
//!
//! Two things are deliberately *not* behind this module.  `crates/obs`
//! renders (and digests) its own event lines: it sits below the harness in
//! the crate graph, and its lines hold only numbers and static labels, so
//! nothing in them needs escaping.  `crates/coding`'s FNV is a different
//! function (a length-mixed byte packing that feeds a keyed polynomial
//! hash, not the [`fnv1a_hex`] fingerprint).
//!
//! [`CampaignSpec::fingerprint`]: crate::spec::CampaignSpec::fingerprint

use crate::spec::SpecError;
use core::fmt::Write as _;

/// A parsed JSON value.
///
/// Objects preserve key order (a `Vec` of pairs, not a map): the spec layer
/// compares and re-serializes values, and order stability keeps those
/// operations deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text (parse on access via
    /// [`JsonValue::as_f64`] / [`JsonValue::as_u64`]).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A number value from a `u64` (exact — no float round trip).
    pub fn from_u64(v: u64) -> JsonValue {
        JsonValue::Num(v.to_string())
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a non-negative integer
    /// number token (seeds and counts; no float detour).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// [`JsonValue::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in key order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

impl core::fmt::Display for JsonValue {
    /// Compact canonical rendering: [`json_str`] escaping, raw number
    /// tokens, no whitespace.  `parse(format(v)) == v` for every value this
    /// module produces.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(true) => f.write_str("true"),
            JsonValue::Bool(false) => f.write_str("false"),
            JsonValue::Num(raw) => f.write_str(raw),
            JsonValue::Str(s) => f.write_str(&json_str(s)),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", json_str(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: String,
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document (trailing whitespace allowed, trailing data not).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(value)
}

/// Nesting depth cap — specs are a few levels deep; this only guards against
/// pathological inputs blowing the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), JsonError> {
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", ch as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let token = &self.bytes[self.pos..self.pos + 4];
        let text = core::str::from_utf8(token).map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (the common case).
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                let run = core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            continue; // hex4 advanced past the escape already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = core::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(JsonValue::Num(raw))
    }
}

// ---------------------------------------------------------------------------
// Write side: scalars, then the streaming object / array writers.
// ---------------------------------------------------------------------------

/// Append `s` as a JSON string literal — the one escaping body.
fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs wholesale; every escaped byte is ASCII, so the
    // run boundaries are char boundaries.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append an f64 as its canonical number token (see [`json_num`]).
fn push_num(out: &mut String, v: f64) {
    let written = if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
    written.expect("writing to a String cannot fail");
}

/// `s` as a JSON string literal (quotes, backslashes, control characters
/// escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str_literal(&mut out, s);
    out
}

/// Format an f64 the way JSON expects (no NaN/inf ever reaches this point).
pub fn json_num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

/// The FNV-1a hash of a byte stream, rendered as 16 hex digits — the one
/// fingerprint function of the workspace (spec fingerprints, report-record
/// fingerprints, the campaign server's job keys all use it).
pub fn fnv1a_hex(bytes: impl Iterator<Item = u8>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One canonical JSON object, encoded by `fill`.
pub fn object(fill: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fill);
    // Documents are kept — the server caches every cell's line for the
    // life of its job, resume keeps a file's worth — so do not hold the
    // growth slack (up to 2×) of the buffer they were written into.
    out.shrink_to_fit();
    out
}

/// Append one canonical JSON object, encoded by `fill`, to `out`.
pub fn write_object(out: &mut String, fill: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    fill(&mut ObjectWriter { out, first: true });
    out.push('}');
}

/// Streaming writer of one JSON object's fields, appending straight into a
/// `String` in call order.  The output is byte-identical to rendering the
/// same fields as a [`JsonValue::Obj`]; the braces are placed by whoever
/// hands the writer out ([`object`], [`write_object`], a nested
/// [`ObjectWriter::obj`] / [`ArrayWriter::obj`]).
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjectWriter<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_str_literal(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        push_str_literal(self.key(key), value);
        self
    }

    /// An exact unsigned-integer field (seeds, counts, indices).
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        write!(self.key(key), "{value}").expect("writing to a String cannot fail");
        self
    }

    /// A float field, as its [`json_num`] token.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        push_num(self.key(key), value);
        self
    }

    /// A `true` / `false` / `null` field.
    pub fn opt_bool(&mut self, key: &str, value: Option<bool>) -> &mut Self {
        self.raw(
            key,
            match value {
                Some(true) => "true",
                Some(false) => "false",
                None => "null",
            },
        )
    }

    /// A field whose value is already-canonical JSON text (a nested
    /// document another encoder produced, or a `null`).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// A nested object field, its fields written by `fill`.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.key(key), fill);
        self
    }

    /// A nested array field, its elements written by `fill`.
    pub fn arr(&mut self, key: &str, fill: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        write_array(self.key(key), fill);
        self
    }

    /// An array-of-indices field (edge ids, node ids).
    pub fn usizes(&mut self, key: &str, items: &[usize]) -> &mut Self {
        push_usizes(self.key(key), items);
        self
    }
}

fn push_usizes(out: &mut String, items: &[usize]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{item}").expect("writing to a String cannot fail");
    }
    out.push(']');
}

fn write_array(out: &mut String, fill: impl FnOnce(&mut ArrayWriter<'_>)) {
    out.push('[');
    fill(&mut ArrayWriter { out, first: true });
    out.push(']');
}

/// Streaming writer of one JSON array's elements — the element-position
/// twin of [`ObjectWriter`].
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ArrayWriter<'_> {
    fn element(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// A nested object element, its fields written by `fill`.
    pub fn obj(&mut self, fill: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.element(), fill);
        self
    }

    /// An array-of-indices element (one row of a schedule).
    pub fn usizes(&mut self, items: &[usize]) -> &mut Self {
        push_usizes(self.element(), items);
        self
    }
}

// ---------------------------------------------------------------------------
// Read side: typed field access over a parsed value.
// ---------------------------------------------------------------------------

/// Typed field reader over one parsed JSON object.  Every accessor either
/// returns the coerced value or a [`SpecError::Missing`] whose dotted path
/// is the reader's `path` prefix plus the field name (`grid.payload` +
/// `source` → `grid.payload.source`; an empty prefix names the field
/// alone).  A field of the wrong type reads as missing; fields nobody asks
/// for are ignored.
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    value: &'a JsonValue,
    path: &'a str,
}

impl<'a> Reader<'a> {
    /// Read `value`'s fields, reporting errors under the `path` prefix.
    pub fn new(value: &'a JsonValue, path: &'a str) -> Reader<'a> {
        Reader { value, path }
    }

    /// The error for a missing or mistyped `name` (which may itself carry
    /// element markers, e.g. `schedule[1][]`).
    pub fn missing(&self, name: &str) -> SpecError {
        SpecError::Missing {
            field: if self.path.is_empty() {
                name.to_string()
            } else {
                format!("{}.{name}", self.path)
            },
        }
    }

    /// The raw field, if present.
    pub fn get(&self, name: &str) -> Option<&'a JsonValue> {
        self.value.get(name)
    }

    fn typed<T>(
        &self,
        name: &str,
        coerce: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, SpecError> {
        self.get(name)
            .and_then(coerce)
            .ok_or_else(|| self.missing(name))
    }

    /// A required field of any type.
    pub fn value(&self, name: &str) -> Result<&'a JsonValue, SpecError> {
        self.typed(name, Some)
    }

    /// A required string field.
    pub fn str(&self, name: &str) -> Result<&'a str, SpecError> {
        self.typed(name, JsonValue::as_str)
    }

    /// A required exact-`u64` field.
    pub fn u64(&self, name: &str) -> Result<u64, SpecError> {
        self.typed(name, JsonValue::as_u64)
    }

    /// A required `usize` field.
    pub fn usize(&self, name: &str) -> Result<usize, SpecError> {
        self.typed(name, JsonValue::as_usize)
    }

    /// A required float field.
    pub fn f64(&self, name: &str) -> Result<f64, SpecError> {
        self.typed(name, JsonValue::as_f64)
    }

    /// A required array field.
    pub fn array(&self, name: &str) -> Result<&'a [JsonValue], SpecError> {
        self.typed(name, JsonValue::as_array)
    }

    /// A required object field, as its `(key, value)` pairs in document
    /// order.
    pub fn object(&self, name: &str) -> Result<&'a [(String, JsonValue)], SpecError> {
        self.typed(name, JsonValue::as_object)
    }

    /// A string field that may be absent; `null` or any other non-string
    /// reads as absent too.
    pub fn opt_str(&self, name: &str) -> Option<&'a str> {
        self.get(name).and_then(JsonValue::as_str)
    }

    /// A field that may be omitted (`Ok(None)` — the caller substitutes the
    /// documented default) but must have the right type when present: read
    /// it with `required`, one of the typed accessors above.
    pub fn optional<T>(
        &self,
        name: &str,
        required: impl FnOnce(&Self, &str) -> Result<T, SpecError>,
    ) -> Result<Option<T>, SpecError> {
        match self.get(name) {
            None => Ok(None),
            Some(_) => required(self, name).map(Some),
        }
    }

    /// `items` (the value found under `name`) as an array of `usize`s;
    /// errors name `name` for a non-array and `name[]` for a bad element.
    pub fn usizes(&self, name: &str, items: &JsonValue) -> Result<Vec<usize>, SpecError> {
        items
            .as_array()
            .ok_or_else(|| self.missing(name))?
            .iter()
            .map(|item| {
                item.as_usize()
                    .ok_or_else(|| self.missing(&format!("{name}[]")))
            })
            .collect()
    }

    /// Require the `"kind"` tag of a line or server document to be
    /// `expected`; anything else is `Invalid` with reason `not a {what}`.
    pub fn kind(&self, expected: &str, what: &str) -> Result<(), SpecError> {
        if self.opt_str("kind") == Some(expected) {
            Ok(())
        } else {
            Err(SpecError::Invalid {
                reason: format!("not a {what}"),
            })
        }
    }

    /// The lenient form spec files use: a `"kind"` tag may be omitted, but
    /// one naming a different document is refused.
    pub fn kind_if_present(&self, expected: &str) -> Result<(), SpecError> {
        match self.opt_str("kind") {
            Some(kind) if kind != expected => Err(SpecError::Invalid {
                reason: format!("document kind is `{kind}`, expected `{expected}`"),
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn json_numbers_render_integers_without_fraction() {
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(3.5), "3.5");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(JsonValue::as_array).unwrap().len(), 3);
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let seed = u64::MAX - 1;
        let v = JsonValue::from_u64(seed);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(seed));
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let original = "quote\" slash\\ tab\t newline\n nul\u{1} emoji😀 high\u{10FFFF}";
        let rendered = json_str(original);
        let back = parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(
            parse(r#""\u0041\ud83d\ude00""#).unwrap().as_str(),
            Some("A😀")
        );
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "tru",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "1 2",
            "\"abc",
            "01x",
            "[1]]",
            "\"\\ud800\"",
            "-",
            "1.",
            "1e",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn display_is_compact_and_reparseable() {
        let v = parse(r#" { "k" : [ 1 , 2.5 , "s" ] , "n" : null } "#).unwrap();
        let compact = v.to_string();
        assert_eq!(compact, r#"{"k":[1,2.5,"s"],"n":null}"#);
        assert_eq!(parse(&compact).unwrap(), v);
    }

    /// A document exercising every writer method, nested both ways.
    fn written() -> String {
        object(|w| {
            w.str("s", "quote\" slash\\ nl\n tab\t cr\r nul\u{1} é😀")
                .u64("u", u64::MAX)
                .f64("whole", 3.0)
                .f64("frac", 0.1)
                .opt_bool("yes", Some(true))
                .opt_bool("no", Some(false))
                .opt_bool("unknown", None)
                .raw("raw", "[1,{\"x\":null}]")
                .obj("empty", |_| {})
                .obj("key \"quoted\"", |o| {
                    o.u64("a", 1).arr("rows", |rows| {
                        rows.usizes(&[1, 2]).usizes(&[]).obj(|o| {
                            o.str("k", "v");
                        });
                    });
                })
                .usizes("ids", &[7])
                .arr("none", |_| {});
        })
    }

    #[test]
    fn the_writer_is_byte_identical_to_displaying_the_same_tree() {
        // `Display` over a parse tree is the reference rendering; the writer
        // must place every comma, brace, escape and number token the same.
        let text = written();
        assert_eq!(parse(&text).unwrap().to_string(), text);
        assert!(text.starts_with(r#"{"s":"quote\" slash\\ nl\n tab\t cr\r nul\u0001 é😀","u":18446744073709551615,"whole":3,"frac":0.1,"yes":true,"no":false,"unknown":null,"raw":[1,{"x":null}],"empty":{},"#));
        assert!(text.ends_with(
            r#""key \"quoted\"":{"a":1,"rows":[[1,2],[],{"k":"v"}]},"ids":[7],"none":[]}"#
        ));
        // Appending to an existing buffer leaves what was there alone.
        let mut out = String::from("x\n");
        write_object(&mut out, |w| {
            w.u64("a", 1);
        });
        assert_eq!(out, "x\n{\"a\":1}");
    }

    #[test]
    fn the_reader_coerces_or_names_the_dotted_path() {
        let v =
            parse(r#"{"kind":"thing","s":"x","n":7,"f":-2.5,"a":[1,2,"x"],"o":{"k":1},"z":null}"#)
                .unwrap();
        let r = Reader::new(&v, "outer[]");
        assert_eq!(r.str("s").unwrap(), "x");
        assert_eq!((r.u64("n").unwrap(), r.usize("n").unwrap()), (7, 7));
        assert_eq!(r.f64("f").unwrap(), -2.5);
        assert_eq!(r.array("a").unwrap().len(), 3);
        assert_eq!(r.object("o").unwrap()[0].0, "k");
        assert_eq!(r.value("z").unwrap(), &JsonValue::Null);
        let path = |e: SpecError| match e {
            SpecError::Missing { field } => field,
            other => panic!("expected Missing, got {other:?}"),
        };
        // Absent and mistyped read the same; negative is not a u64.
        assert_eq!(path(r.str("absent").unwrap_err()), "outer[].absent");
        assert_eq!(path(r.str("n").unwrap_err()), "outer[].n");
        assert_eq!(path(r.u64("f").unwrap_err()), "outer[].f");
        assert_eq!(
            path(r.usizes("a", r.value("a").unwrap()).unwrap_err()),
            "outer[].a[]"
        );
        assert_eq!(
            path(r.usizes("o", r.value("o").unwrap()).unwrap_err()),
            "outer[].o"
        );
        assert_eq!(path(Reader::new(&v, "").u64("s").unwrap_err()), "s");
        // Optional: omitted is `None`, present must still have the type.
        assert_eq!(r.optional("absent", Reader::u64).unwrap(), None);
        assert_eq!(r.optional("n", Reader::u64).unwrap(), Some(7));
        assert_eq!(path(r.optional("s", Reader::u64).unwrap_err()), "outer[].s");
        assert_eq!(
            (r.opt_str("s"), r.opt_str("z"), r.opt_str("n")),
            (Some("x"), None, None)
        );
        // Kind tags: strict for lines and server documents, lenient for specs.
        assert!(r.kind("thing", "thing line").is_ok());
        assert_eq!(
            r.kind("other", "other line").unwrap_err().to_string(),
            "invalid spec: not a other line"
        );
        assert!(r.kind_if_present("thing").is_ok());
        assert!(r.kind_if_present("other").is_err());
        assert!(Reader::new(&JsonValue::Null, "")
            .kind_if_present("other")
            .is_ok());
        assert!(Reader::new(&JsonValue::Null, "")
            .kind("other", "x")
            .is_err());
    }
}
