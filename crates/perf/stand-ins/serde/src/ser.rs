//! Serialization: values stream themselves as JSON text.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;

/// JSON text sink. Tracks, per open container, whether an element has
/// been written yet, so callers never place commas themselves.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
    pretty: bool,
    /// One entry per open array/object: `true` until its first element.
    first: Vec<bool>,
}

impl Writer {
    /// Compact output appended to `out` (which may carry a reused
    /// allocation).
    pub fn compact(out: Vec<u8>) -> Self {
        Self {
            out,
            pretty: false,
            first: Vec::new(),
        }
    }

    /// Two-space indented output, as `serde_json::to_string_pretty`.
    pub fn pretty() -> Self {
        Self {
            out: Vec::new(),
            pretty: true,
            first: Vec::new(),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    fn newline(&mut self) {
        self.out.push(b'\n');
        for _ in 0..self.first.len() {
            self.out.extend_from_slice(b"  ");
        }
    }

    /// Separator before an array element or an object key.
    fn separate(&mut self) {
        let first = self.first.last_mut().expect("inside a container");
        if !std::mem::replace(first, false) {
            self.out.push(b',');
        }
        if self.pretty {
            self.newline();
        }
    }

    fn close(&mut self, bracket: u8) {
        let was_empty = self.first.pop().expect("inside a container");
        if self.pretty && !was_empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    pub fn begin_object(&mut self) {
        self.out.push(b'{');
        self.first.push(true);
    }

    /// Write `"key":`; the value must follow.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.str(key);
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
    }

    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    pub fn begin_array(&mut self) {
        self.out.push(b'[');
        self.first.push(true);
    }

    /// Announce the next array element; the value must follow.
    pub fn element(&mut self) {
        self.separate();
    }

    pub fn end_array(&mut self) {
        self.close(b']');
    }

    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    pub fn bool(&mut self, v: bool) {
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
    }

    pub fn u64(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Shortest text that parses back to the same float; non-finite
    /// values become `null`, as in serde_json.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let mut text = FmtVec(&mut self.out);
            write!(text, "{v:?}").expect("writing to a Vec cannot fail");
        } else {
            self.null();
        }
    }

    pub fn str(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0C => b"\\f",
                0..=0x1F => b"",
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[run..i]);
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.out.extend_from_slice(b"\\u00");
                self.out.push(HEX[usize::from(b >> 4)]);
                self.out.push(HEX[usize::from(b & 0xF)]);
            } else {
                self.out.extend_from_slice(escape);
            }
            run = i + 1;
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }
}

/// `fmt::Write` over a byte vector (float formatting only emits ASCII).
struct FmtVec<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for FmtVec<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// A value that can write itself as JSON.
pub trait Serialize {
    fn serialize(&self, w: &mut Writer);
}

/// A type usable as a JSON object key (serde_json stringifies integer
/// keys).
pub trait MapKey {
    fn write_key(&self, w: &mut Writer);
}

impl MapKey for String {
    fn write_key(&self, w: &mut Writer) {
        w.key(self);
    }
}

impl MapKey for &str {
    fn write_key(&self, w: &mut Writer) {
        w.key(self);
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
        impl MapKey for $t {
            fn write_key(&self, w: &mut Writer) {
                w.key(&self.to_string());
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
        }
        impl MapKey for $t {
            fn write_key(&self, w: &mut Writer) {
                w.key(&self.to_string());
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer) {
        if self.is_finite() {
            // Format as f32 so the text is the shortest f32 round-trip.
            w.out.extend_from_slice(format!("{self:?}").as_bytes());
        } else {
            w.null();
        }
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0u8; 4]));
    }
}

impl Serialize for () {
    fn serialize(&self, w: &mut Writer) {
        w.null();
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, w: &mut Writer) {
    w.begin_array();
    for item in items {
        w.element();
        item.serialize(w);
    }
    w.end_array();
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self, w);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self, w);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self, w);
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self, w);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self, w);
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self, w: &mut Writer) {
        serialize_seq(self, w);
    }
}

fn serialize_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    w: &mut Writer,
) {
    w.begin_object();
    for (k, v) in entries {
        k.write_key(w);
        v.serialize(w);
    }
    w.end_object();
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        serialize_map(self, w);
    }
}

impl<K: MapKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        serialize_map(self, w);
    }
}

macro_rules! tuple {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.serialize(w);
                )+
                w.end_array();
            }
        }
    )*};
}
tuple! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}
