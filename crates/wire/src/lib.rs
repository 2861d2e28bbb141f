//! # heidl-wire — wire protocols for HeidiRMI
//!
//! The protocol substrate from Welling & Ott (Middleware 2000): the
//! newline-terminated **text protocol** HeidiRMI actually used ("a newline
//! terminated string of ASCII characters", §3.1) and a **CDR/GIOP-lite
//! binary protocol** standing in for the general-purpose inter-ORB
//! protocols the paper compares against (§2).
//!
//! Both implement the same [`Encoder`]/[`Decoder`] pair — the marshaling
//! surface a `Call` object exposes to generated stubs — and the same
//! [`Protocol`] framing trait, so the ORB runtime is protocol-agnostic and
//! protocols are swappable per endpoint, which is the paper's whole point.
//!
//! ```
//! use heidl_wire::{Protocol, TextProtocol};
//!
//! let p = TextProtocol;
//! let mut enc = p.encoder();
//! enc.put_string("print");
//! enc.put_long(3);
//! let body = enc.finish();
//! assert_eq!(std::str::from_utf8(&body).unwrap(), r#""print" 3"#);
//!
//! let mut dec = p.decoder(body)?;
//! assert_eq!(dec.get_string()?, "print");
//! assert_eq!(dec.get_long()?, 3);
//! # Ok::<(), heidl_wire::WireError>(())
//! ```

#![warn(missing_docs)]

pub mod cdr;
pub mod chunk;
pub mod codec;
pub mod error;
pub mod limits;
pub mod plan;
pub mod pool;
pub mod protocol;
pub mod text;

pub use cdr::{CdrDecoder, CdrEncoder};
pub use chunk::ChunkAssembler;
pub use codec::{Decoder, Encoder};
pub use error::{WireError, WireResult};
pub use limits::DecodeLimits;
pub use plan::{CdrStructPlan, FieldKind, PlanValue};
pub use pool::{BufPool, FrameBuf, PooledBuf, RECV_CHUNK};
pub use protocol::{
    by_name, CdrProtocol, Protocol, TextProtocol, CDR_CHUNK_LEN, CDR_CHUNK_MAGIC, CDR_CONTEXT_LEN,
    CDR_CONTEXT_MAGIC, CDR_TOKEN_LEN, CDR_TOKEN_MAGIC, MAX_FRAME_HEADER, TEXT_CHUNK_MARKER,
    TEXT_CONTEXT_MARKER, TEXT_TOKEN_MARKER,
};
pub use text::{TextDecoder, TextEncoder};
