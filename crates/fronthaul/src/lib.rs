//! # slingshot-fronthaul
//!
//! O-RAN split-7.2x-style fronthaul protocol: eCPRI framing, the
//! frame/subframe/slot application header that the in-switch middlebox
//! parses for TTI-boundary migration (paper §5.1), C-plane control
//! sections, and U-plane messages carrying block-floating-point
//! compressed IQ samples.

#![forbid(unsafe_code)]

pub mod ecpri;
pub mod messages;

pub use ecpri::{peek_headers, Direction, EcpriHeader, EcpriMsgType, FhHeader};
pub use messages::{
    compress_symbol_with, decompress_prbs_with, fh_header, CPlaneMsg, CSection, DciEntry, DciMsg,
    FhMessage, ShadowMsg, UPlaneMsg, UciEntry, UciMsg,
};
