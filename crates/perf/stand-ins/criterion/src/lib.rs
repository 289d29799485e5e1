//! Empty stand-in for `criterion`: resolved, never built.
