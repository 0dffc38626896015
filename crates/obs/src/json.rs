//! The one JSON reader and the one JSON writer in the tree.
//!
//! [`Reader`] is a forward-only pull reader over a single JSON object.
//! The trace format ([`crate::jsonl::parse_line`]), the cluster router's
//! JSONL edge and control bodies (`hom_cluster_serve::wire::jsonl`) and
//! the scrapes of the introspection routes all read through it.
//!
//! It reads the subset those bodies are written in: one flat object
//! whose values are strings, numbers, `true` / `false`, `null` and
//! arrays of these. Nested objects are not supported, because none of
//! the bodies it reads holds one: a value holding one, even under an
//! unknown key, is the typed error `"nested object"`.
//!
//! A caller walks the object with [`Reader::next_key`] and reads each
//! value straight into a typed slot ([`Reader::u64_value`],
//! [`Reader::f64_array`], …) or [`Reader::skip`]s it, so decoding
//! allocates only what it keeps: strings come back borrowed unless
//! they carried escapes. Integers are exact — a token is a `u64` only
//! when it is all digits and fits, never rounded through `f64` (trace
//! and stream ids live near 2⁶⁴). Floats go through `str::parse`, which
//! reads the shortest round-trip decimal [`Writer::f64`] writes back to
//! the same bits. `\uXXXX` escapes decode; a surrogate code unit, which
//! nothing writes, becomes U+FFFD.
//!
//! Reading is total and bounded: any string yields a value or a
//! `&'static str` reason, never a panic. Skipping never recurses —
//! array nesting is a counter capped at [`MAX_DEPTH`] — and every scan
//! is linear in the input.
//!
//! [`Writer`] writes every JSON body the library emits: the trace lines,
//! the HTTP bodies of the introspection API, the router and the worker,
//! the router's client-edge JSONL and the bench dumps. It holds the one
//! string escaper, the shortest round-trip `f64` renderer and the
//! allocation-free `u64` digits.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array nesting the reader walks through in a value it skips.
/// The formats themselves nest two levels at most (a histogram's bucket
/// pairs); the cap bounds how far a hostile line can lead the reader
/// before it answers.
pub const MAX_DEPTH: usize = 64;

/// Shape error of a string slot.
pub const NOT_STRING: &str = "missing or non-string field";
/// Shape error of an exact-integer slot.
pub const NOT_INTEGER: &str = "missing or non-integer field";
/// Shape error of a float slot.
pub const NOT_NUMBER: &str = "missing or non-numeric field";
/// Shape error of an array slot.
pub const NOT_ARRAY: &str = "missing or non-array field";

/// A value read into a typed slot: the value, or the shape error its
/// field reports when asked for ([`NOT_INTEGER`], …). Shape errors wait
/// until the whole object has parsed, so a syntax error anywhere in it
/// takes precedence, and a field the caller never asks for can carry
/// anything.
pub type Slot<T> = Result<T, &'static str>;

/// The slot's value, or its shape error; a key never seen reports
/// `missing`, the same error as a wrongly shaped one.
pub fn field<T>(slot: Option<Slot<T>>, missing: &'static str) -> Result<T, &'static str> {
    slot.unwrap_or(Err(missing))
}

/// Walk a one-object JSON body (`{"stream":7}`, `{"epoch":3,"streams":[…]}`;
/// surrounding whitespace ignored). Every value is syntax-checked; the
/// first occurrence of each of `names` is kept as a [`Field`] to read
/// with the shape the caller expects.
pub fn fields<'a, const N: usize>(
    text: &'a str,
    names: [&str; N],
) -> Result<[Field<'a>; N], &'static str> {
    let mut r = Reader::new(text.trim())?;
    let mut found = [None; N];
    while let Some(key) = r.next_key()? {
        if let Some(i) = names.iter().position(|&name| name == key) {
            found[i].get_or_insert(r);
        }
        r.skip()?;
    }
    Ok(found.map(Field))
}

/// One field of a [`fields`] walk: a reader parked on its value, or
/// `None` when the key was absent.
#[derive(Clone, Copy)]
pub struct Field<'a>(Option<Reader<'a>>);

impl<'a> Field<'a> {
    /// An exact unsigned integer (never rounded through `f64`).
    pub fn u64(self) -> Result<u64, &'static str> {
        self.read(NOT_INTEGER, Reader::u64_value)
    }

    /// An exact integer that fits a `u32`; a larger one is the same
    /// shape error as a missing one, never a silently narrowed value.
    pub fn u32(self) -> Result<u32, &'static str> {
        self.u64()
            .and_then(|v| u32::try_from(v).map_err(|_| NOT_INTEGER))
    }

    /// A string, borrowed unless it carried escapes.
    pub fn str(self) -> Result<Cow<'a, str>, &'static str> {
        self.read(NOT_STRING, Reader::str_value)
    }

    /// An exact unsigned-integer array. An element that is fractional,
    /// negative, or too large for `u64` is a typed error, never a
    /// silently rounded id.
    pub fn u64_array(self) -> Result<Vec<u64>, &'static str> {
        self.read(NOT_ARRAY, Reader::u64_array)
    }

    /// A float array, each element bit-exact to its shortest
    /// round-trip rendering; `null` elements are an error.
    pub fn f64_array(self) -> Result<Vec<f64>, &'static str> {
        self.read(NOT_ARRAY, Reader::f64_array)
    }

    fn read<T>(
        self,
        missing: &'static str,
        value: impl FnOnce(&mut Reader<'a>) -> Result<Slot<T>, &'static str>,
    ) -> Result<T, &'static str> {
        let mut r = self.0.ok_or(missing)?;
        value(&mut r)?
    }
}

/// A forward-only reader over one JSON object. The object is walked
/// with [`Reader::next_key`], after which the caller consumes the value
/// with exactly one value read — typed (`u64_value`, `f64_array`, …) or
/// [`Reader::skip`].
///
/// Value reads return `Err` for a syntax error, which ends the object,
/// and `Ok(Err(shape))` for well-formed JSON of the wrong shape (see
/// [`Slot`]).
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    text: &'a str,
    at: usize,
    /// No key read yet: the next token may not be a `,`.
    first: bool,
}

impl<'a> Reader<'a> {
    /// Open the object that must start `text`.
    #[inline]
    pub fn new(text: &'a str) -> Result<Self, &'static str> {
        let mut r = Reader {
            text,
            at: 0,
            first: true,
        };
        r.eat(b'{')?;
        Ok(r)
    }

    /// Byte offset of the next unread byte — where a syntax error
    /// stopped the reader.
    pub fn offset(&self) -> usize {
        self.at
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Advance past the bytes `keep` accepts.
    #[inline]
    fn scan(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.text.as_bytes()[self.at..];
        self.at += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), &'static str> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err("unexpected character")
        }
    }

    /// The next key, leaving the reader on its value; `None` once the
    /// object closes, which must end the text.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, &'static str> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b'}') => {
                self.at += 1;
                self.skip_ws();
                return if self.at == self.text.len() {
                    Ok(None)
                } else {
                    Err("trailing bytes after object")
                };
            }
            Some(b',') if !first => self.at += 1,
            _ if !first => return Err("expected , or } in object"),
            _ => {}
        }
        let key = self.string()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Any value, checked and discarded. Iterative: only arrays nest,
    /// so the open ones are a counter, not a stack.
    pub fn skip(&mut self) -> Result<(), &'static str> {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return Err("unexpected end of line"),
                Some(b'[') => {
                    self.at += 1;
                    depth += 1;
                    if depth > MAX_DEPTH {
                        return Err("nesting too deep");
                    }
                    if self.peek() != Some(b']') {
                        continue;
                    }
                    self.at += 1;
                    depth -= 1;
                }
                Some(b'{') => return Err("nested object"),
                Some(b'"') => {
                    self.string()?;
                }
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'n') => self.literal("null")?,
                Some(_) => {
                    number(self.token()?)?;
                }
            }
            // A value ended: close the arrays it completes, or move on
            // to the next element.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                match self.peek() {
                    Some(b',') => {
                        self.at += 1;
                        break;
                    }
                    Some(b']') => {
                        self.at += 1;
                        depth -= 1;
                    }
                    _ => return Err("expected , or ] in array"),
                }
            }
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), &'static str> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(())
        } else {
            Err("bad literal")
        }
    }

    /// A string's contents: a borrowed slice, or decoded when it
    /// carries escapes.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, &'static str> {
        self.eat(b'"')?;
        let start = self.at;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.at;
            // '"' and '\\' are ASCII, so every stop is a char boundary.
            self.scan(|b| b != b'"' && b != b'\\');
            let Some(stop) = self.byte() else {
                return Err("unterminated string");
            };
            if stop == b'"' {
                self.at += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(&self.text[start..self.at - 1]),
                    Some(mut s) => {
                        s.push_str(&self.text[run..self.at - 1]);
                        Cow::Owned(s)
                    }
                });
            }
            let s = decoded.get_or_insert_with(String::new);
            s.push_str(&self.text[run..self.at]);
            self.at += 1;
            s.push(match self.byte().ok_or("unterminated escape")? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let hex = self.text.as_bytes().get(self.at + 1..self.at + 5);
                    let code = hex
                        .ok_or("truncated \\u escape")?
                        .iter()
                        .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
                        .ok_or("bad \\u escape")?;
                    self.at += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err("unsupported escape"),
            });
            self.at += 1;
        }
    }

    /// The characters of a number token (not yet checked as a number).
    #[inline]
    fn token(&mut self) -> Result<&'a str, &'static str> {
        self.skip_ws();
        let start = self.at;
        self.scan(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        if self.at == start {
            return Err("expected a number");
        }
        Ok(&self.text[start..self.at])
    }

    /// A string value, borrowed unless it carried escapes.
    #[inline]
    pub fn str_value(&mut self) -> Result<Slot<Cow<'a, str>>, &'static str> {
        if self.peek() == Some(b'"') {
            Ok(Ok(self.string()?))
        } else {
            self.skip()?;
            Ok(Err(NOT_STRING))
        }
    }

    /// A number token converted by `convert` (`None`: a number of the
    /// wrong kind), or `null` as `None`. Any other value is skipped and
    /// reported as `shape`.
    #[inline]
    fn scalar<T>(
        &mut self,
        shape: &'static str,
        convert: impl FnOnce(&str) -> Result<Option<T>, &'static str>,
    ) -> Result<Slot<Option<T>>, &'static str> {
        match self.peek() {
            Some(b'n') => {
                self.literal("null")?;
                Ok(Ok(None))
            }
            Some(b'"' | b'[' | b'{' | b't' | b'f') | None => {
                self.skip()?;
                Ok(Err(shape))
            }
            Some(_) => Ok(convert(self.token()?)?.map(Some).ok_or(shape)),
        }
    }

    /// An exact unsigned integer.
    #[inline]
    pub fn u64_value(&mut self) -> Result<Slot<u64>, &'static str> {
        Ok(self.opt_u64_value()?.and_then(|v| v.ok_or(NOT_INTEGER)))
    }

    /// An exact unsigned integer, or `null` as `None`.
    #[inline]
    pub fn opt_u64_value(&mut self) -> Result<Slot<Option<u64>>, &'static str> {
        self.scalar(NOT_INTEGER, integer)
    }

    /// A float, or `null` as `None`.
    #[inline]
    pub fn opt_f64_value(&mut self) -> Result<Slot<Option<f64>>, &'static str> {
        // A whole-valued f64 rendered without a fraction parses to the
        // same bits whether read as an integer or a float: both round
        // the exact decimal to the nearest f64.
        self.scalar(NOT_NUMBER, |t| number(t).map(Some))
    }

    /// An array of floats; a `null` or non-number element makes the
    /// slot an error.
    #[inline]
    pub fn f64_array(&mut self) -> Result<Slot<Vec<f64>>, &'static str> {
        self.array(|r| {
            let v = r.opt_f64_value()?;
            Ok(v.ok().flatten().ok_or("non-numeric array element"))
        })
    }

    /// An array of exact unsigned integers.
    #[inline]
    pub fn u64_array(&mut self) -> Result<Slot<Vec<u64>>, &'static str> {
        self.array(|r| {
            let v = r.opt_u64_value()?;
            Ok(v.ok().flatten().ok_or("non-integer array element"))
        })
    }

    /// An array whose elements `element` reads, one value each. The
    /// first element's shape error becomes the slot's; later elements
    /// are still syntax-checked.
    #[inline]
    pub fn array<T>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<Slot<T>, &'static str>,
    ) -> Result<Slot<Vec<T>>, &'static str> {
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(Err(NOT_ARRAY));
        }
        self.at += 1;
        let mut out = Ok(Vec::new());
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(out);
        }
        loop {
            match (&mut out, element(self)?) {
                (Ok(items), Ok(v)) => items.push(v),
                (Ok(_), Err(bad)) => out = Err(bad),
                (Err(_), _) => {}
            }
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(out);
                }
                _ => return Err("expected , or ] in array"),
            }
        }
    }
}

/// A JSON writer appending to a caller's `String`, in one of two
/// layouts chosen when it is built:
///
/// * [`Writer::compact`] (a `Writer<'_>`): no whitespace at all — every
///   HTTP body, trace line and JSONL edge line;
/// * [`Writer::pretty`] (a `Writer<'_, true>`): each container element
///   on its own line, indented two spaces per open container, with an
///   empty container written `[]` — the bench dumps under
///   `HOM_JSON_DIR`.
///
/// A writer writes one value, usually an object. Containers are written
/// by closures ([`Writer::object`], [`Writer::array`]), so every one
/// that opens also closes, and commas come from the writer, never from
/// the caller. A JSONL caller builds one writer per line and then
/// pushes its own `'\n'`.
///
/// Strings are escaped: `"` and `\` by a backslash, newline, carriage
/// return and tab by their short escapes, every other control character
/// as `\u00XX`. Floats use `Display`'s shortest round-trip decimal, so
/// [`Reader`] reads back the same bits; JSON has no NaN or infinity, so
/// those are written `null`.
///
/// The layout is a type parameter, so the compact writer carries no
/// indentation code; its methods inline into the caller, where the
/// writer's state lives in registers.
pub struct Writer<'a, const PRETTY: bool = false> {
    out: &'a mut String,
    /// Containers open around the next value; only the pretty layout
    /// reads it.
    depth: usize,
    /// What goes before the next value.
    next: Next,
}

/// What a [`Writer`] writes before its next value.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Next {
    /// Nothing: the writer's one value, or the value after a key.
    Bare,
    /// The first element of a container: no comma.
    First,
    /// The first member of an object in the compact layout, whose `{`
    /// is written with the member's opening quote.
    Open,
    /// A later element: a comma.
    Comma,
}

impl<'a> Writer<'a> {
    /// A writer of the compact layout.
    pub fn compact(out: &'a mut String) -> Self {
        Writer {
            out,
            depth: 0,
            next: Next::Bare,
        }
    }
}

impl<'a> Writer<'a, true> {
    /// A writer of the two-space pretty layout.
    pub fn pretty(out: &'a mut String) -> Self {
        Writer {
            out,
            depth: 0,
            next: Next::Bare,
        }
    }
}

impl<const PRETTY: bool> Writer<'_, PRETTY> {
    /// Whatever goes before a value: a comma unless it is the first of
    /// its container (or a key's value, or the writer's one value), and
    /// in the pretty layout a line break and the element's indent.
    #[inline(always)]
    fn separate(&mut self) {
        let next = std::mem::replace(&mut self.next, Next::Comma);
        match next {
            Next::Comma => self.out.push(','),
            Next::Open => self.out.push('{'),
            Next::Bare | Next::First => {}
        }
        if PRETTY && next != Next::Bare {
            self.indent();
        }
    }

    fn indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    #[inline(always)]
    fn container(&mut self, open: char, close: char, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.depth += 1;
        self.next = if !PRETTY && open == '{' {
            Next::Open
        } else {
            self.out.push(open);
            Next::First
        };
        fill(self);
        self.depth -= 1;
        match self.next {
            Next::Open => self.out.push(open),
            Next::First => {}
            _ if PRETTY => self.indent(),
            _ => {}
        }
        self.next = Next::Comma;
        self.out.push(close);
        self
    }

    /// An object whose fields `fill` writes, each a [`Writer::key`]
    /// followed by one value.
    #[inline(always)]
    pub fn object(&mut self, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', fill)
    }

    /// An array whose elements `fill` writes.
    #[inline(always)]
    pub fn array(&mut self, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', fill)
    }

    /// An object key; the next value written is its value.
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.quoted(key, "\":");
        self.next = Next::Bare;
        self
    }

    /// A string, quoted and escaped.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.quoted(s, "\"");
        self
    }

    /// A string literal after its separator, then `close`. Nearly every
    /// string the tree writes (keys above all) needs no escape, so that
    /// is checked first, without branching per byte, and the string
    /// copied whole; the compact layout writes a comma and the opening
    /// quote in one go.
    #[inline(always)]
    fn quoted(&mut self, s: &str, close: &str) {
        if PRETTY {
            self.separate();
            self.out.push('"');
        } else {
            match std::mem::replace(&mut self.next, Next::Comma) {
                Next::Comma => self.out.push_str(",\""),
                Next::Open => self.out.push_str("{\""),
                Next::Bare | Next::First => self.out.push('"'),
            }
        }
        let plain = !s.bytes().fold(false, |bad, b| {
            bad | (b < 0x20) | (b == b'"') | (b == b'\\')
        });
        if plain {
            self.out.push_str(s);
        } else {
            escape(self.out, s);
        }
        self.out.push_str(close);
    }

    /// An unsigned integer, exact, its digits written without an
    /// allocation.
    #[inline(always)]
    pub fn u64(&mut self, mut v: u64) -> &mut Self {
        self.separate();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for &d in &digits[at..] {
            self.out.push(char::from(d));
        }
        self
    }

    /// A float as its shortest round-trip decimal; `null` when it is
    /// not finite.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.separate();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// `true` or `false`.
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// `null`.
    #[inline]
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    /// An array of floats, each as [`Writer::f64`] writes it.
    #[inline]
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.array(|w| {
            for &v in values {
                w.f64(v);
            }
        })
    }

    /// An array of unsigned integers.
    #[inline]
    pub fn u64s(&mut self, values: impl IntoIterator<Item = u64>) -> &mut Self {
        self.array(|w| {
            for v in values {
                w.u64(v);
            }
        })
    }
}

/// The string escaper: runs of plain bytes are copied whole, and every
/// byte that needs an escape is ASCII, so each cut falls on a char
/// boundary.
#[cold]
fn escape(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{:04x}", control);
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// A compact one-object body ending in a newline — what every JSON
/// route of the introspection API, the router and the worker answers.
pub fn object_line(fill: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    Writer::compact(&mut out).object(fill);
    out.push('\n');
    out
}

/// A number token as `f64`.
#[inline]
fn number(token: &str) -> Result<f64, &'static str> {
    token.parse().map_err(|_| "bad number")
}

/// A number token as an exact `u64`: only digit-only tokens that fit
/// (ids near `u64::MAX` must not round through `f64`). Any other valid
/// number — fractions, signs, whole values too big for `u64` like
/// 1e300's 301-digit rendering — is `None`.
#[inline]
fn integer(token: &str) -> Result<Option<u64>, &'static str> {
    let exact = token.bytes().try_fold(0u64, |acc, b| {
        let digit = b.checked_sub(b'0').filter(|&d| d < 10)?;
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    });
    match exact {
        Some(v) => Ok(Some(v)),
        None => number(token).map(|_| None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_array_field_keeps_large_ids_exact() {
        // u64::MAX exceeds f64's exact integer range: the census parse
        // must keep it bit-exact, or the rebalancer migrates wrong ids.
        let line = format!("{{\"streams\":[0,7,{}]}}", u64::MAX);
        let [streams] = fields(&line, ["streams"]).unwrap();
        assert_eq!(streams.u64_array().unwrap(), vec![0, 7, u64::MAX]);
        // Fractional, negative, or u64-overflowing (rounded) elements
        // are typed errors, never truncated ids.
        for bad in [
            "{\"streams\":[1.5]}",
            "{\"streams\":[-1]}",
            "{\"streams\":[99999999999999999999]}",
            "{\"streams\":7}",
        ] {
            let [streams] = fields(bad, ["streams"]).unwrap();
            assert!(streams.u64_array().is_err(), "{bad}");
        }
    }

    #[test]
    fn literals_escapes_and_nested_objects() {
        let body = r#" {"live":true,"dead":false,"v":null,"s":"a\u0001bé\ud800","x":[1,null]} "#;
        let [live, s, x, missing] = fields(body, ["live", "s", "x", "nope"]).unwrap();
        assert_eq!(live.str(), Err(NOT_STRING));
        assert_eq!(s.str().unwrap(), "a\u{1}bé\u{fffd}");
        assert_eq!(x.f64_array(), Err("non-numeric array element"));
        assert_eq!(missing.u64(), Err(NOT_INTEGER));
        for (bad, what) in [
            (r#"{"k":{"a":1}}"#, "nested object"),
            (r#"{"k":[{}]}"#, "nested object"),
            (r#"{"k":tru}"#, "bad literal"),
            (r#"{"k":"\u12"}"#, "bad \\u escape"),
            (r#"{"k":"\u12"#, "truncated \\u escape"),
        ] {
            assert_eq!(fields(bad, ["k"]).err(), Some(what), "{bad}");
        }
    }
}
