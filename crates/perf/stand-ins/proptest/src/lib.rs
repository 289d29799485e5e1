//! Empty stand-in for `proptest`: resolved, never built.
