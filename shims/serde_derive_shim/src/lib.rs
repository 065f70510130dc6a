//! Empty placeholder for the former `#[derive(Serialize)]` shim; see the
//! `serde` placeholder for why the crate still exists.
