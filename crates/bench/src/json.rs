//! Dependency-free JSON serialization for result dumps.
//!
//! The harness only ever *writes* JSON (the `results/` dumps), so
//! instead of pulling in a serde stack it builds a [`Json`] value tree
//! and prints it: `{}` on one line, `{:#}` indented. Structs opt in
//! with [`crate::json_object_impl!`], which mirrors what
//! `#[derive(Serialize)]` produced before.

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
    fn tuples_and_options_render() {
        let t = ("poi".to_string(), vec!["w".to_string()], true);
        assert!(t.to_json().to_string().contains("\"poi\""));
        assert_eq!(Option::<u32>::None.to_json(), Json::Null);
    }
}
