//! Offline stand-in for `serde_derive`. matgnn derives `Serialize` and
//! `Deserialize` on its config and record types but has no serde data
//! format in the tree, so nothing ever calls the generated impls; the
//! derives here accept the same input and expand to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
