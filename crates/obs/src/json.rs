//! The one JSON writer: every report the workspace emits goes through it,
//! among them `CAMPAIGN_btr.json` and `FUZZ_btr.json`, byte contracts
//! that CI compares with `cmp` (serialization crates are stubbed
//! offline, see vendor/README.md). A container opens with a [`Layout`]
//! and a closure fills it; the writer places every key, comma and space.
//! Strings are escaped (`"`, `\`, control characters); `None` and a
//! non-finite float render `null`; a float renders in its shortest
//! (`Display`) form, or with fixed decimals through [`fixed`].

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, two spaces deeper than the line the
    /// container opens on, `": "` after keys; the closing bracket on a
    /// line of its own, also when empty. [`Object::row`] shares a line.
    Block,
    /// One line, `", "` and `": "`; a `newline` breaks it, continuing one
    /// column past the line's indent (under the first member).
    Inline,
    /// No whitespace, `","` and `":"`; a `newline` breaks it at column 0.
    Compact,
}

/// A value that renders as one JSON token.
pub trait Scalar {
    /// Append the token to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// Booleans and integers render as `Display` writes them.
macro_rules! display {
    ($($t:ty)*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
display!(bool u8 u16 u32 u64 u128 usize i64);

/// A finite float, formatted; see [`fixed`].
#[derive(Debug, Clone)]
pub struct Number(String);

impl Scalar for Number {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

/// `value` with `decimals` digits after the point; `None` (`null`) when
/// it is not finite.
pub fn fixed(value: f64, decimals: usize) -> Option<Number> {
    value
        .is_finite()
        .then(|| Number(format!("{value:.decimals$}")))
}

/// The shortest form that reads back as the same float.
impl Scalar for f64 {
    fn write_json(&self, out: &mut String) {
        self.is_finite()
            .then(|| Number(self.to_string()))
            .write_json(out);
    }
}

/// One open container.
struct Frame<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Leading spaces of the line the container opened on.
    indent: usize,
    members: usize,
    /// Line breaks owed before the next member or the closing bracket.
    breaks: usize,
    /// Inside [`Object::row`]: the member count when the row began.
    row: Option<usize>,
}

impl<'a> Frame<'a> {
    fn open(out: &'a mut String, layout: Layout, bracket: char) -> Frame<'a> {
        let line = &out[out.rfind('\n').map_or(0, |i| i + 1)..];
        let indent = line.len() - line.trim_start_matches(' ').len();
        out.push(bracket);
        Frame {
            out,
            layout,
            indent,
            members: 0,
            breaks: 0,
            row: None,
        }
    }

    /// The comma after the previous member, the space before this one
    /// and its key; returns where the value goes.
    fn member(&mut self, key: Option<&str>) -> &mut String {
        if self.members > 0 {
            self.out.push(',');
        }
        self.space(true);
        self.members += 1;
        if let Some(key) = key {
            let colon = if self.layout == Layout::Compact {
                ":"
            } else {
                ": "
            };
            key.write_json(self.out);
            self.out.push_str(colon);
        }
        self.out
    }

    /// The whitespace before a member, or before the closing bracket:
    /// line breaks, then spaces.
    fn space(&mut self, member: bool) {
        let (lines, spaces) = match self.layout {
            Layout::Block if member && self.row.is_some_and(|r| self.members > r) => (0, 1),
            Layout::Block => (1, self.indent + if member { 2 } else { 0 }),
            Layout::Inline if self.breaks > 0 => (self.breaks, self.indent + 1),
            Layout::Inline => (0, usize::from(member && self.members > 0)),
            Layout::Compact => (self.breaks, 0),
        };
        self.out.extend(std::iter::repeat_n('\n', lines));
        self.out.extend(std::iter::repeat_n(' ', spaces));
        self.breaks = 0;
    }
}

/// An open JSON object.
pub struct Object<'a>(Frame<'a>);

/// An open JSON array.
pub struct Array<'a>(Frame<'a>);

fn write_object(out: &mut String, layout: Layout, body: impl FnOnce(&mut Object<'_>)) {
    let mut o = Object(Frame::open(out, layout, '{'));
    body(&mut o);
    o.0.space(false);
    o.0.out.push('}');
}

fn write_array(out: &mut String, layout: Layout, body: impl FnOnce(&mut Array<'_>)) {
    let mut a = Array(Frame::open(out, layout, '['));
    body(&mut a);
    a.0.space(false);
    a.0.out.push(']');
}

impl Object<'_> {
    /// A member with a scalar value.
    pub fn field(&mut self, key: &str, value: impl Scalar) {
        value.write_json(self.0.member(Some(key)));
    }

    /// A member holding an object.
    pub fn object(&mut self, key: &str, layout: Layout, body: impl FnOnce(&mut Object<'_>)) {
        write_object(self.0.member(Some(key)), layout, body);
    }

    /// A member holding an array.
    pub fn array(&mut self, key: &str, layout: Layout, body: impl FnOnce(&mut Array<'_>)) {
        write_array(self.0.member(Some(key)), layout, body);
    }

    /// Break the line before the next member (see [`Layout`]).
    pub fn newline(&mut self) {
        self.0.breaks += 1;
    }

    /// The members `body` adds share one line, after `", "` (in a block
    /// object; the other layouts are one line already).
    pub fn row(&mut self, body: impl FnOnce(&mut Self)) {
        self.0.row = Some(self.0.members);
        body(self);
        self.0.row = None;
    }
}

impl Array<'_> {
    /// One scalar element per value.
    pub fn items<T: Scalar>(&mut self, values: impl IntoIterator<Item = T>) {
        for v in values {
            v.write_json(self.0.member(None));
        }
    }

    /// An object element.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Object<'_>)) {
        write_object(self.0.member(None), layout, body);
    }

    /// An array element.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Array<'_>)) {
        write_array(self.0.member(None), layout, body);
    }

    /// An element this writer rendered earlier (a trace event, kept
    /// until its file is finished).
    pub(crate) fn raw(&mut self, json: &str) {
        self.0.member(None).push_str(json);
    }

    /// Break the line before the next element or the closing bracket,
    /// once per call (see [`Layout`]).
    pub(crate) fn newline(&mut self) {
        self.0.breaks += 1;
    }
}

/// Render one object.
pub(crate) fn object(layout: Layout, body: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, layout, body);
    out
}

/// Render a file: one object and the newline that ends it.
pub fn document(layout: Layout, body: impl FnOnce(&mut Object<'_>)) -> String {
    object(layout, body) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_and_empty_containers() {
        let s = document(Layout::Block, |o| {
            o.field("q\"k", "a\\b\r\u{1f}é");
            o.object("v", Layout::Inline, |o| {
                o.field("none", None::<u64>);
                o.field("short", 0.5f64);
                o.field("whole", 2.0f64);
                o.field("fixed", fixed(2.0, 2));
                o.field("nan", f64::NAN);
                o.field("inf", fixed(f64::INFINITY, 1));
            });
            o.array("block", Layout::Block, |_| {});
            o.array("inline", Layout::Inline, |_| {});
        });
        let want = "{\n  \"q\\\"k\": \"a\\\\b\\r\\u001fé\",\n  \"v\": {\"none\": null, \
                    \"short\": 0.5, \"whole\": 2, \"fixed\": 2.00, \"nan\": null, \
                    \"inf\": null},\n  \"block\": [\n  ],\n  \"inline\": []\n}\n";
        assert_eq!(s, want);
    }
}
