//! No-op `Serialize`/`Deserialize` derives.
//!
//! The PICO workspace derives the serde traits on its plan and model
//! types but never hands them to a serializer (all JSON goes through
//! `pico_telemetry::json`), so the derives can expand to nothing.

use proc_macro::TokenStream;

/// Accepts `#[derive(Serialize)]` and `#[serde(..)]` attributes; emits nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts `#[derive(Deserialize)]` and `#[serde(..)]` attributes; emits nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
