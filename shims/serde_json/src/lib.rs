//! Empty placeholder for the former `serde_json` shim; see the `serde`
//! placeholder for why the crate still exists. JSON is written and parsed
//! by `metam_obs::json`.
