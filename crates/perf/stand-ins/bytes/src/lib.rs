//! Offline stand-in for `bytes`: the planetp crates declare the
//! dependency but use nothing from it.
