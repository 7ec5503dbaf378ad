//! Dependency-free JSON for the result dumps.
//!
//! Instead of pulling in a serde stack the harness builds a [`Json`]
//! value tree and prints it: `{}` on one line, `{:#}` indented. Structs
//! opt in with [`crate::json_object_impl!`], which mirrors what
//! `#[derive(Serialize)]` produced before. `Json::parse` reads a dump
//! back, for `paper summary`.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer; every Rust integer up to 64 bits fits.
    Int(i128),
    /// A float: the shortest text that reads back as it, with a `.0` when
    /// integral; non-finite values serialize as `null` like serde_json.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON value tree.
    fn to_json(&self) -> Json;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
    )*};
}

int_to_json!(usize, u8, u16, u32, u64, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    /// Widened through its shortest decimal text, not bit for bit, so
    /// `0.1f32` records as `0.1` rather than `0.10000000149011612`.
    fn to_json(&self) -> Json {
        Json::Num(self.to_string().parse().expect("a float's text parses"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Implements [`ToJson`] for a struct by listing its fields, mirroring
/// what `#[derive(Serialize)]` used to emit:
/// `json_object_impl!(DepthResult { depth, report });`
#[macro_export]
macro_rules! json_object_impl {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }
    };
}

// Result types from other workspace crates that the harness dumps.
json_object_impl!(st_eval::MetricReport { ks, values, users });
json_object_impl!(st_data::DatasetStats {
    users,
    pois,
    words,
    checkins,
    crossing_users,
    crossing_checkins,
});

impl Json {
    /// Parses one JSON document (what [`Json`]'s `Display` writes, and
    /// any other standard JSON text). Integers without a fraction or
    /// exponent read as [`Json::Int`], other numbers as [`Json::Num`].
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { text, at: 0 };
        let value = parser.value()?;
        parser.skip_space();
        match parser.at == parser.text.len() {
            true => Ok(value),
            false => Err(parser.error("trailing characters")),
        }
    }

    /// The value under `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number (integer or float) as `f64`.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The items of an array.
    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A recursive-descent reader over the bytes of one document.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self
            .text
            .as_bytes()
            .get(self.at)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.at += 1;
        }
    }

    /// Consumes `token` if the text continues with it.
    fn eat(&mut self, token: &str) -> bool {
        let found = self.text[self.at..].starts_with(token);
        if found {
            self.at += token.len();
        }
        found
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.text.as_bytes().get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("null") => Ok(Json::Null),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The items between `open` and `close`, separated by commas, each
    /// read by `item`.
    fn items<T>(
        &mut self,
        open: &str,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open);
        let mut items = Vec::new();
        self.skip_space();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_space();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(",") {
                return Err(self.error(&format!("expected ',' or '{close}'")));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let fields = self.items("{", "}", |p| {
            p.skip_space();
            let key = p.string()?;
            p.skip_space();
            if !p.eat(":") {
                return Err(p.error("expected ':'"));
            }
            Ok((key, p.value()?))
        })?;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.items("[", "]", Self::value).map(Json::Arr)
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let (text, mut out) = (self.text, String::new());
        let mut chars = text[self.at..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => out.push(match chars.next().map(|(_, e)| e) {
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('b') => '\u{8}',
                    Some('f') => '\u{c}',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        code.ok_or_else(|| self.error("bad \\u escape"))?
                    }
                    Some(other) => other,
                    None => break,
                }),
                c => out.push(c),
            }
        }
        Err(self.error("unterminated string"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .text
            .as_bytes()
            .get(self.at)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.at += 1;
        }
        let text = &self.text[start..self.at];
        let parsed = match text.contains(['.', 'e', 'E']) {
            true => text.parse().ok().map(Json::Num),
            false => text.parse().ok().map(Json::Int),
        };
        parsed.ok_or_else(|| format!("bad number {text:?} at byte {start}"))
    }
}

impl fmt::Display for Json {
    /// `{}` renders on one line, `{:#}` indented two spaces per level.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, f.alternate().then_some(0))
    }
}

/// `depth` is the current indentation level, or `None` on one line.
fn write_value(f: &mut fmt::Formatter<'_>, v: &Json, depth: Option<usize>) -> fmt::Result {
    let inner = depth.map(|d| d + 1);
    let colon = if depth.is_some() { ": " } else { ":" };
    match v {
        Json::Null => write!(f, "null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Int(i) => write!(f, "{i}"),
        Json::Num(n) if n.is_finite() => write!(f, "{n:?}"),
        Json::Num(_) => write!(f, "null"),
        Json::Str(s) => write_string(f, s),
        Json::Arr(items) if items.is_empty() => write!(f, "[]"),
        Json::Arr(items) => {
            write!(f, "[")?;
            for (i, item) in items.iter().enumerate() {
                write!(f, "{}", if i > 0 { "," } else { "" })?;
                newline(f, inner)?;
                write_value(f, item, inner)?;
            }
            newline(f, depth)?;
            write!(f, "]")
        }
        Json::Obj(fields) if fields.is_empty() => write!(f, "{{}}"),
        Json::Obj(fields) => {
            write!(f, "{{")?;
            for (i, (key, val)) in fields.iter().enumerate() {
                write!(f, "{}", if i > 0 { "," } else { "" })?;
                newline(f, inner)?;
                write_string(f, key)?;
                write!(f, "{colon}")?;
                write_value(f, val, inner)?;
            }
            newline(f, depth)?;
            write!(f, "}}")
        }
    }
}

/// Line break plus indentation when indenting, nothing on one line.
fn newline(f: &mut fmt::Formatter<'_>, depth: Option<usize>) -> fmt::Result {
    let Some(depth) = depth else { return Ok(()) };
    writeln!(f)?;
    for _ in 0..depth {
        write!(f, "  ")?;
    }
    Ok(())
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings_render() {
        assert_eq!(Json::Int(3).to_string(), "3");
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Str("a\"b\nc".into()).to_string(), r#""a\"b\nc""#);
        assert_eq!(Json::Bool(true).to_string(), "true");
    }

    /// As serde printed the tracked `results/` files: integers bare,
    /// floats with a fraction, an `f32` by its own shortest text.
    #[test]
    fn numbers_print_like_the_tracked_results() {
        assert_eq!(0.1f32.to_json().to_string(), "0.1");
        assert_eq!(0.0f64.to_json().to_string(), "0.0");
        assert_eq!(3usize.to_json().to_string(), "3");
        assert_eq!(0.25f64.to_json().to_string(), "0.25");
    }

    #[test]
    fn nested_structures_render_indented_and_on_one_line() {
        struct Point {
            x: f64,
            label: String,
        }
        json_object_impl!(Point { x, label });
        let v = vec![Point {
            x: 1.5,
            label: "a".into(),
        }];
        let json = v.to_json();
        assert_eq!(
            format!("{json:#}"),
            "[\n  {\n    \"x\": 1.5,\n    \"label\": \"a\"\n  }\n]"
        );
        assert_eq!(json.to_string(), r#"[{"x":1.5,"label":"a"}]"#);
    }

    #[test]
    fn parse_reads_back_what_display_writes() {
        let value = Json::Obj(vec![
            ("n".into(), Json::Int(-3)),
            ("x".into(), Json::Num(0.1)),
            ("e".into(), Json::Num(1.5e-7)),
            ("s".into(), Json::Str("a\"b\\c\n\u{1}é".into())),
            ("empty".into(), Json::Arr(vec![])),
            (
                "nested".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Obj(vec![])]),
            ),
        ]);
        for text in [value.to_string(), format!("{value:#}")] {
            assert_eq!(Json::parse(&text), Ok(value.clone()), "{text}");
        }
        assert_eq!(value.get("x").and_then(Json::as_f64), Some(0.1));
        assert_eq!(value.get("n").and_then(Json::as_f64), Some(-3.0));
        for bad in ["", "[1,", "{\"a\" 1}", "[1] 2", "\"open", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn tuples_and_options_render() {
        let t = ("poi".to_string(), vec!["w".to_string()], true);
        assert!(t.to_json().to_string().contains("\"poi\""));
        assert_eq!(Option::<u32>::None.to_json(), Json::Null);
    }
}
