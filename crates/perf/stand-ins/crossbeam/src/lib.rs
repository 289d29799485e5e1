//! Offline stand-in for `crossbeam`: the planetp crates declare the
//! dependency but use nothing from it.
