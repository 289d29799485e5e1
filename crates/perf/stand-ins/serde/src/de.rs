//! Deserialization: values parse themselves from JSON text.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Nesting deeper than this is refused (serde_json's limit), so hostile
/// input cannot overflow the stack.
const MAX_DEPTH: u32 = 128;

/// Why parsing failed, with the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Self {
            msg: msg.to_string(),
            offset: 0,
        }
    }

    pub fn missing_field(field: &str) -> Self {
        Self::custom(format_args!("missing field `{field}`"))
    }

    pub fn unknown_variant(variant: &str) -> Self {
        Self::custom(format_args!("unknown variant `{variant}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// Cursor over JSON text.
#[derive(Debug)]
pub struct Reader<'de> {
    buf: &'de [u8],
    pos: usize,
    depth: u32,
}

impl<'de> Reader<'de> {
    pub fn new(buf: &'de [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    pub fn error(&self, msg: impl fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.buf.get(self.pos) {
            self.pos += 1;
        }
    }

    /// Next significant byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.buf.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), Error> {
        self.skip_ws();
        if self.buf[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{text}`")))
        }
    }

    /// Only whitespace may remain.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    /// Consume `null` if it is next.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected a boolean")),
        }
    }

    /// The text of the next number token and whether it is an integer.
    fn number(&mut self) -> Result<(&'de str, bool), Error> {
        self.skip_ws();
        let start = self.pos;
        let mut integer = true;
        if self.buf.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while let Some(&b) = self.buf.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => integer = false,
                _ => break,
            }
            self.pos += 1;
        }
        if self.pos == digits {
            return Err(self.error("expected a number"));
        }
        // The token is ASCII by construction.
        let text = std::str::from_utf8(&self.buf[start..self.pos]).expect("ASCII number token");
        Ok((text, integer))
    }

    pub fn u64(&mut self) -> Result<u64, Error> {
        let (text, integer) = self.number()?;
        if !integer || text.starts_with('-') {
            return Err(self.error("expected an unsigned integer"));
        }
        text.parse().map_err(|_| self.error("integer out of range"))
    }

    pub fn i64(&mut self) -> Result<i64, Error> {
        let (text, integer) = self.number()?;
        if !integer {
            return Err(self.error("expected an integer"));
        }
        text.parse().map_err(|_| self.error("integer out of range"))
    }

    pub fn f64(&mut self) -> Result<f64, Error> {
        let (text, _) = self.number()?;
        text.parse().map_err(|_| self.error("malformed number"))
    }

    /// The next string; borrowed from the input unless it has escapes.
    pub fn str(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.buf.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let raw = &self.buf[start..self.pos];
                    self.pos += 1;
                    return std::str::from_utf8(raw)
                        .map(Cow::Borrowed)
                        .map_err(|_| self.error("string is not UTF-8"));
                }
                Some(b'\\') => break,
                Some(0..=0x1F) => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        let mut out = self.buf[start..self.pos].to_vec();
        loop {
            match self.buf.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map(Cow::Owned)
                        .map_err(|_| self.error("string is not UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.buf.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0C),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let c = self.unicode_escape()?;
                            out.extend_from_slice(c.encode_utf8(&mut [0u8; 4]).as_bytes());
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(0..=0x1F) => return Err(self.error("control character in string")),
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .buf
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    /// The character of a `\u` escape (the `\u` itself already
    /// consumed), joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.buf.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.error("lone surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("lone surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.expect(b'[')?;
        self.enter()
    }

    /// Is there another element? Consumes the separating comma or the
    /// closing bracket. `first` must start `true` per array.
    pub fn array_next(&mut self, first: &mut bool) -> Result<bool, Error> {
        self.container_next(first, b']')
    }

    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.expect(b'{')?;
        self.enter()
    }

    /// The next key (its `:` consumed too), or `None` at the closing
    /// brace. `first` must start `true` per object.
    pub fn object_next(&mut self, first: &mut bool) -> Result<Option<Cow<'de, str>>, Error> {
        if !self.container_next(first, b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn container_next(&mut self, first: &mut bool, close: u8) -> Result<bool, Error> {
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !*first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if *first => {
                *first = false;
                Ok(true)
            }
            _ => Err(self.error(format_args!("expected `,` or `{}`", close as char))),
        }
    }

    /// Skip one value of any shape (an unknown field's).
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.str().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.array_next(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.object_next(&mut first)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Look ahead into the object that starts here for the string value
    /// of `tag` (an internally tagged enum's variant), leaving the
    /// cursor where it was.
    pub fn find_tag(&mut self, tag: &str) -> Result<String, Error> {
        let (pos, depth) = (self.pos, self.depth);
        self.begin_object()?;
        let mut first = true;
        let mut found = None;
        while let Some(key) = self.object_next(&mut first)? {
            if key == tag {
                found = Some(self.str()?.into_owned());
                break;
            }
            self.skip_value()?;
        }
        (self.pos, self.depth) = (pos, depth);
        found.ok_or_else(|| Error::missing_field(tag))
    }
}

/// A value that can parse itself from JSON.
pub trait Deserialize<'de>: Sized {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error>;

    /// The value of a struct field absent from the input: an error,
    /// except for `Option`, which reads as `None`.
    fn missing(field: &'static str) -> Result<Self, Error> {
        Err(Error::missing_field(field))
    }
}

/// A value deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// A type readable back from a JSON object key.
pub trait MapKey: Sized {
    fn from_key(key: Cow<'_, str>) -> Result<Self, Error>;
}

impl MapKey for String {
    fn from_key(key: Cow<'_, str>) -> Result<Self, Error> {
        Ok(key.into_owned())
    }
}

macro_rules! integer {
    ($read:ident: $($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
                <$t>::try_from(r.$read()?).map_err(|_| r.error("integer out of range"))
            }
        }
        impl MapKey for $t {
            fn from_key(key: Cow<'_, str>) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::custom("invalid integer map key"))
            }
        }
    )*};
}
integer!(u64: u8, u16, u32, u64, usize);
integer!(i64: i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        r.f64()
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        r.f64().map(|v| v as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        r.bool()
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        r.str().map(Cow::into_owned)
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        let s = r.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(r.error("expected a single character")),
        }
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        if r.null()? {
            Ok(())
        } else {
            Err(r.error("expected null"))
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }

    fn missing(_: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

/// Parse an array, feeding each element to `push`.
fn deserialize_seq<'de, T: Deserialize<'de>>(
    r: &mut Reader<'de>,
    mut push: impl FnMut(T),
) -> Result<(), Error> {
    r.begin_array()?;
    let mut first = true;
    while r.array_next(&mut first)? {
        push(T::deserialize(r)?);
    }
    Ok(())
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        let mut out = Vec::new();
        deserialize_seq(r, |v| out.push(v))?;
        Ok(out)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        Vec::deserialize(r).map(VecDeque::from)
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        let mut out = BTreeSet::new();
        deserialize_seq(r, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

impl<'de, T, S> Deserialize<'de> for HashSet<T, S>
where
    T: Deserialize<'de> + Eq + Hash,
    S: BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        let mut out = HashSet::default();
        deserialize_seq(r, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(r)?;
        items
            .try_into()
            .map_err(|_| r.error(format_args!("expected an array of {N} elements")))
    }
}

/// Parse an object, feeding each entry to `insert`.
fn deserialize_map<'de, K: MapKey, V: Deserialize<'de>>(
    r: &mut Reader<'de>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    r.begin_object()?;
    let mut first = true;
    while let Some(key) = r.object_next(&mut first)? {
        insert(K::from_key(key)?, V::deserialize(r)?);
    }
    Ok(())
}

impl<'de, K: MapKey + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        let mut out = BTreeMap::new();
        deserialize_map(r, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: MapKey + Eq + Hash,
    V: Deserialize<'de>,
    S: BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
        let mut out = HashMap::default();
        deserialize_map(r, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

macro_rules! tuple {
    ($(($($name:ident),+))*) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize(r: &mut Reader<'de>) -> Result<Self, Error> {
                r.begin_array()?;
                let mut first = true;
                let value = ($(
                    if r.array_next(&mut first)? {
                        $name::deserialize(r)?
                    } else {
                        return Err(r.error("tuple is too short"));
                    },
                )+);
                if r.array_next(&mut first)? {
                    return Err(r.error("tuple is too long"));
                }
                Ok(value)
            }
        }
    )*};
}
tuple! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}
