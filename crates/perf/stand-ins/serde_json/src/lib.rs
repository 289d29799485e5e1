//! Offline stand-in for `serde_json`: the entry points the planetp
//! crates call, over the JSON reader and writer of the `serde`
//! stand-in.

use serde::de::{DeserializeOwned, Reader};
use serde::ser::{Serialize, Writer};
use std::io;

pub use serde::de::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut w = Writer::compact(Vec::with_capacity(128));
    value.serialize(&mut w);
    Ok(w.into_bytes())
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec(value).map(|bytes| String::from_utf8(bytes).expect("the writer emits UTF-8"))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::pretty();
    value.serialize(&mut w);
    Ok(String::from_utf8(w.into_bytes()).expect("the writer emits UTF-8"))
}

pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    let bytes = to_vec(value)?;
    writer.write_all(&bytes).map_err(Error::custom)
}

pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}

pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

pub fn from_reader<R: io::Read, T: DeserializeOwned>(mut reader: R) -> Result<T> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes).map_err(Error::custom)?;
    from_slice(&bytes)
}
