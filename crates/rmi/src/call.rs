//! The `Call` object: request/reply envelopes over any wire protocol.
//!
//! Paper §3.1 and Fig 4: *"When a stub method is invoked, a new `Call`
//! object that provides the generic functionality for making a remote
//! method call is created. The stringified object reference of the target
//! remote object forms the header of the `Call`. After any parameters to
//! the remote method are marshaled into the `Call` object, the `Call` is
//! invoked."*
//!
//! Body layouts (protocol-agnostic, built from codec primitives only):
//!
//! * request: `ulonglong request-id · string target-objref · string method ·
//!   bool response-expected · <args>` — the id correlates replies that may
//!   arrive out of order on a multiplexed connection; the flag (as in GIOP's
//!   `response_expected`) keeps `oneway` calls from desynchronizing the
//!   reply stream on a cached connection;
//! * reply:   `ulonglong request-id · octet status · <results>` where status
//!   `0` = OK, or `status != 0 · string repo-id · string detail` for
//!   exceptions (`1` = user exception, `2` = system exception, `3` = server
//!   busy — the request was shed by admission control *before* dispatch, so
//!   clients treat it as always-safe-to-retry).
//!
//! On the text protocol both headers stay telnet-readable: a human types a
//! small request id first (`7 "@tcp:host:port#1#IDL:..." "print" T ...`) and
//! sees the same id echoed at the front of the reply (`7 0 ...`), or on an
//! overloaded server `7 3 "IDL:heidl/ServerBusy:1.0" "in-flight cap"`.
//!
//! When call tracing is enabled, a request body may additionally end with
//! the protocols' optional **trailing context section** carrying
//! `(call-id, parent-id)` — see [`Call::attach_context`]. Old peers never
//! read past the declared arguments, so the section is invisible to them;
//! on the text protocol a telnet user joins a trace by typing
//! ` "~ctx" 42 7` at the end of a request line.

use crate::error::{RmiError, RmiResult};
use crate::objref::ObjectRef;
use crate::stream::STREAM_ACK_OBJECT_ID;
use crate::trace::CallContext;
use heidl_wire::{DecodeLimits, Decoder, Encoder, Protocol, Section};
use std::sync::atomic::{AtomicU64, Ordering};

/// Repository id stamped on [`ReplyStatus::Busy`] replies.
pub const BUSY_REPO_ID: &str = "IDL:heidl/ServerBusy:1.0";

/// Process-wide request-id source. Ids only need to be unique among calls
/// in flight on one connection, so a single monotonically increasing
/// counter shared by every ORB in the process is more than enough.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh request id.
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Reply status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Normal completion; results follow.
    Ok,
    /// A `raises(...)`-declared exception; repo id + detail follow.
    UserException,
    /// An ORB-level failure (unknown object/method, unmarshal error).
    SystemException,
    /// The server shed the request before dispatch (admission control or
    /// drain); repo id + detail follow. Always safe to retry.
    Busy,
}

impl ReplyStatus {
    fn code(self) -> u8 {
        match self {
            ReplyStatus::Ok => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
            ReplyStatus::Busy => 3,
        }
    }

    fn from_code(c: u8) -> RmiResult<Self> {
        Ok(match c {
            0 => ReplyStatus::Ok,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::Busy,
            other => return Err(RmiError::Protocol(format!("bad reply status {other}"))),
        })
    }
}

/// A client-side request under construction.
pub struct Call {
    request_id: u64,
    target: ObjectRef,
    method: String,
    response_expected: bool,
    enc: Box<dyn Encoder>,
    /// Byte offset where the request id ends and the target begins.
    id_end: usize,
    /// Byte offset where the argument bytes end — pinned when the first
    /// trailing section is attached; `None` means "arguments run to the
    /// end of the body".
    args_end: Option<usize>,
}

impl std::fmt::Debug for Call {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Call")
            .field("request_id", &self.request_id)
            .field("target", &self.target.to_string())
            .field("method", &self.method)
            .finish_non_exhaustive()
    }
}

impl Call {
    /// Starts a request to `method` on `target`; the stringified reference
    /// becomes the call header.
    pub fn request(target: &ObjectRef, method: &str, protocol: &dyn Protocol) -> Call {
        Call::with_response_flag(target, method, protocol, true)
    }

    /// Starts a `oneway` request: the server will not send a reply.
    pub fn oneway(target: &ObjectRef, method: &str, protocol: &dyn Protocol) -> Call {
        Call::with_response_flag(target, method, protocol, false)
    }

    fn with_response_flag(
        target: &ObjectRef,
        method: &str,
        protocol: &dyn Protocol,
        response_expected: bool,
    ) -> Call {
        let request_id = next_request_id();
        let mut enc = protocol.encoder();
        enc.put_ulonglong(request_id);
        let id_end = enc.position();
        enc.put_string(&target.to_string());
        enc.put_string(method);
        enc.put_bool(response_expected);
        Call {
            request_id,
            target: target.clone(),
            method: method.to_owned(),
            response_expected,
            enc,
            id_end,
            args_end: None,
        }
    }

    /// The correlation id stamped at the front of the request body.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Whether the server will reply to this call.
    pub fn response_expected(&self) -> bool {
        self.response_expected
    }

    /// The argument encoder: marshal parameters here, in order.
    pub fn args(&mut self) -> &mut dyn Encoder {
        self.enc.as_mut()
    }

    /// The target reference.
    pub fn target(&self) -> &ObjectRef {
        &self.target
    }

    /// The method name.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// Appends the wire-level trailing context section to this call. Must
    /// be called **after** every argument has been marshaled (the section
    /// is a suffix; anything put after it would corrupt the tail). Returns
    /// `false` when `protocol` has no context encoding.
    pub fn attach_context(&mut self, protocol: &dyn Protocol, ctx: CallContext) -> bool {
        self.attach(protocol, Section::Context, ctx.call_id, ctx.parent_id)
    }

    /// Appends the wire-level trailing invocation-token section to this
    /// call. Must be called **after** every argument has been marshaled
    /// and **before** [`Call::attach_context`] — when both suffixes are
    /// present the token comes first so each sits at a fixed offset from
    /// the end of the body. Returns `false` when `protocol` has no token
    /// encoding.
    pub fn attach_token(&mut self, protocol: &dyn Protocol, token: InvocationToken) -> bool {
        self.attach(protocol, Section::Token, token.session, token.seq)
    }

    /// Appends the wire-level trailing chunk section to this call, marking
    /// it as a **stream request**: the chunk `index` carries the client's
    /// requested credit window in bytes and `last` is always `false`. Must
    /// be called after every argument and after any token/context suffix —
    /// the chunk section is the outermost. Returns `false` when `protocol`
    /// has no chunk encoding.
    pub fn attach_stream_request(&mut self, protocol: &dyn Protocol, window_bytes: u64) -> bool {
        self.attach(protocol, Section::Chunk, window_bytes, 0)
    }

    /// Appends one trailing section, first pinning where the arguments end.
    fn attach(&mut self, protocol: &dyn Protocol, section: Section, a: u64, b: u64) -> bool {
        if self.args_end.is_none() {
            self.args_end = Some(self.enc.position());
        }
        protocol.attach_section(self.enc.as_mut(), section, a, b)
    }

    /// The byte range from the end of the request id to the end of the
    /// arguments: target, method, response flag and arguments — what
    /// identifies a `@cached` invocation, and nothing that changes per
    /// call.
    pub(crate) fn cache_key_span(&self) -> std::ops::Range<usize> {
        self.id_end..self.args_end.unwrap_or_else(|| self.enc.position())
    }

    /// Completes the request, yielding the message body to send.
    pub fn into_body(mut self) -> Vec<u8> {
        self.enc.finish()
    }

    /// Completes the request, yielding the target, method name, and
    /// message body. Equivalent to reading [`Call::target`] /
    /// [`Call::method`] and then calling [`Call::into_body`], but moves
    /// the owned values out instead of cloning them — the invocation hot
    /// path keeps the target and method for retries, metrics, and
    /// interceptors, and this spares it an `ObjectRef` clone plus a
    /// `String` allocation per call.
    pub fn into_parts(self) -> (ObjectRef, String, Vec<u8>) {
        let Call { target, method, mut enc, .. } = self;
        (target, method, enc.finish())
    }
}

/// An exactly-once invocation identity: a per-ORB session id plus a
/// monotonically increasing sequence number within that session. A retried
/// call carries the *same* token, which is what lets the server recognize
/// the duplicate and replay the cached reply instead of re-executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InvocationToken {
    /// Identifies the client ORB instance that originated the call.
    pub session: u64,
    /// Position of this invocation within the session (monotonic).
    pub seq: u64,
}

/// Recovers the trailing [`InvocationToken`] from a received request body,
/// if the peer stamped one. Purely a tail inspection: bodies without the
/// section (from old peers, or for calls that are not exactly-once) return
/// `None` and decode exactly as before.
pub fn extract_invocation_token(body: &[u8], protocol: &dyn Protocol) -> Option<InvocationToken> {
    protocol.extract_token(body).map(|(session, seq)| InvocationToken { session, seq })
}

/// A server-side view of a received request.
pub struct IncomingCall {
    /// The correlation id from the call header; echoed into the reply.
    pub request_id: u64,
    /// The target reference from the call header.
    pub target: ObjectRef,
    /// The requested method.
    pub method: String,
    /// False for `oneway` requests — the server must not reply.
    pub response_expected: bool,
    /// Decoder positioned at the first argument.
    pub args: Box<dyn Decoder>,
}

impl std::fmt::Debug for IncomingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncomingCall")
            .field("target", &self.target.to_string())
            .field("method", &self.method)
            .finish_non_exhaustive()
    }
}

impl IncomingCall {
    /// Parses a request body received from the wire.
    ///
    /// # Errors
    ///
    /// Fails on unmarshalable headers or unparsable references.
    pub fn parse(body: Vec<u8>, protocol: &dyn Protocol) -> RmiResult<IncomingCall> {
        IncomingCall::parse_limited(body, protocol, &DecodeLimits::default())
    }

    /// Parses a request body with explicit [`DecodeLimits`] — the server
    /// path, where hostile length prefixes must bound allocations.
    ///
    /// # Errors
    ///
    /// Fails on unmarshalable headers, unparsable references, or bodies
    /// violating `limits`.
    pub fn parse_limited(
        body: Vec<u8>,
        protocol: &dyn Protocol,
        limits: &DecodeLimits,
    ) -> RmiResult<IncomingCall> {
        let mut dec = protocol.decoder_with_limits(body, limits)?;
        let request_id = dec.get_ulonglong()?;
        let target_text = dec.get_string()?;
        let target: ObjectRef = target_text.parse()?;
        let method = dec.get_string()?;
        let response_expected = dec.get_bool()?;
        Ok(IncomingCall { request_id, target, method, response_expected, args: dec })
    }
}

/// What the server's reader needs to route one request, from
/// [`peek_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RequestHead {
    /// The correlation id.
    pub request_id: u64,
    /// False for a oneway.
    pub response_expected: bool,
    /// The target's object id; `None` when the target does not parse as
    /// an object reference. Such requests are never health probes, and
    /// the full parse on the dispatch path produces the diagnostic.
    pub object_id: Option<u64>,
    /// A stream credit ack's `(stream request id, consumed bytes)`, read
    /// on in the same pass when the target is
    /// [`STREAM_ACK_OBJECT_ID`]; `None` for any other request, and for an
    /// ack whose arguments do not decode.
    pub ack: Option<(u64, u64)>,
}

/// One-pass routing peek for the server's reader thread: reads the
/// [`RequestHead`] from a request body over a borrowed decoder — no body copy,
/// one decode.
pub(crate) fn peek_route(
    body: &[u8],
    protocol: &dyn Protocol,
    limits: &DecodeLimits,
) -> RmiResult<RequestHead> {
    let mut dec = protocol.peek_decoder(body, limits)?;
    let request_id = dec.get_ulonglong()?;
    let target = dec.get_string()?;
    dec.skip_string()?; // method
    let response_expected = dec.get_bool()?;
    let object_id = target.parse::<ObjectRef>().ok().map(|r| r.object_id);
    let ack = match object_id {
        Some(STREAM_ACK_OBJECT_ID) => {
            dec.get_ulonglong().and_then(|stream| Ok((stream, dec.get_ulonglong()?))).ok()
        }
        _ => None,
    };
    Ok(RequestHead { request_id, response_expected, object_id, ack })
}

/// Reads just the leading request id from a reply body without consuming
/// it, so the client-side demultiplexer can hand the bytes to the right
/// pending caller.
///
/// # Errors
///
/// Fails when the body does not start with an unmarshalable id.
pub fn peek_reply_id(body: &[u8], protocol: &dyn Protocol) -> RmiResult<u64> {
    let mut dec = protocol.peek_decoder(body, &DecodeLimits::default())?;
    Ok(dec.get_ulonglong()?)
}

/// Reads `(request-id, status)` from a reply body without consuming it,
/// so the invocation engine can recognize a [`ReplyStatus::Busy`] shed
/// (and feed it to the circuit breaker / retry policy) before the stub
/// unmarshals results.
///
/// # Errors
///
/// Fails when the body does not start with an id and a valid status code.
pub fn peek_reply_status(body: &[u8], protocol: &dyn Protocol) -> RmiResult<(u64, ReplyStatus)> {
    let mut dec = protocol.peek_decoder(body, &DecodeLimits::default())?;
    let request_id = dec.get_ulonglong()?;
    let status = ReplyStatus::from_code(dec.get_octet()?)?;
    Ok((request_id, status))
}

/// A server-side reply under construction.
pub struct ReplyBuilder {
    enc: Box<dyn Encoder>,
}

impl std::fmt::Debug for ReplyBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyBuilder").finish_non_exhaustive()
    }
}

impl ReplyBuilder {
    /// Starts a normal reply to request `request_id`; marshal results into
    /// [`ReplyBuilder::results`].
    pub fn ok(protocol: &dyn Protocol, request_id: u64) -> ReplyBuilder {
        let mut enc = protocol.encoder();
        enc.put_ulonglong(request_id);
        enc.put_octet(ReplyStatus::Ok.code());
        ReplyBuilder { enc }
    }

    /// Builds a complete exception reply to request `request_id`.
    pub fn exception(
        protocol: &dyn Protocol,
        request_id: u64,
        status: ReplyStatus,
        repo_id: &str,
        detail: &str,
    ) -> Vec<u8> {
        debug_assert_ne!(status, ReplyStatus::Ok, "exceptions need a non-OK status");
        let mut enc = protocol.encoder();
        enc.put_ulonglong(request_id);
        enc.put_octet(status.code());
        enc.put_string(repo_id);
        enc.put_string(detail);
        enc.finish()
    }

    /// Builds a complete busy (load-shed) reply to request `request_id`.
    /// On the text protocol this stays telnet-readable:
    /// `7 3 "IDL:heidl/ServerBusy:1.0" "in-flight cap (4) reached"`.
    pub fn busy(protocol: &dyn Protocol, request_id: u64, detail: &str) -> Vec<u8> {
        ReplyBuilder::exception(protocol, request_id, ReplyStatus::Busy, BUSY_REPO_ID, detail)
    }

    /// The result encoder.
    pub fn results(&mut self) -> &mut dyn Encoder {
        self.enc.as_mut()
    }

    /// Completes the reply body.
    pub fn into_body(mut self) -> Vec<u8> {
        self.enc.finish()
    }
}

/// Reads a reply's header off `dec`: the request id of an OK reply, with
/// `dec` left at the first result; an exception reply's
/// [`RmiError::Remote`] or [`RmiError::ServerBusy`].
///
/// # Errors
///
/// Unmarshalable headers, a bad status code, and the exception replies.
pub(crate) fn read_reply_header(dec: &mut dyn Decoder) -> RmiResult<u64> {
    let request_id = dec.get_ulonglong()?;
    match ReplyStatus::from_code(dec.get_octet()?)? {
        ReplyStatus::Ok => Ok(request_id),
        ReplyStatus::UserException | ReplyStatus::SystemException => {
            let repo_id = dec.get_string()?;
            let detail = dec.get_string()?;
            Err(RmiError::Remote { repo_id, detail })
        }
        ReplyStatus::Busy => {
            let _repo_id = dec.get_string()?;
            let detail = dec.get_string()?;
            Err(RmiError::ServerBusy { detail })
        }
    }
}

/// A client-side view of a received reply.
pub struct Reply {
    request_id: u64,
    dec: Box<dyn Decoder>,
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reply").field("request_id", &self.request_id).finish_non_exhaustive()
    }
}

impl Reply {
    /// Parses a reply body; exception replies become [`RmiError::Remote`].
    ///
    /// # Errors
    ///
    /// Fails on unmarshalable bodies; remote exceptions surface as
    /// [`RmiError::Remote`].
    pub fn parse(body: Vec<u8>, protocol: &dyn Protocol) -> RmiResult<Reply> {
        let mut dec = protocol.decoder(body)?;
        let request_id = read_reply_header(dec.as_mut())?;
        Ok(Reply { request_id, dec })
    }

    /// The correlation id echoed from the request.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The result decoder, positioned at the first result value.
    pub fn results(&mut self) -> &mut dyn Decoder {
        self.dec.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objref::Endpoint;
    use heidl_wire::{CdrProtocol, TextProtocol};

    fn target() -> ObjectRef {
        ObjectRef::new(Endpoint::new("tcp", "localhost", 1234), 42, "IDL:Heidi/A:1.0")
    }

    fn protocols() -> Vec<Box<dyn Protocol>> {
        vec![Box::new(TextProtocol), Box::new(CdrProtocol)]
    }

    #[test]
    fn request_roundtrip_on_both_protocols() {
        for p in protocols() {
            let mut call = Call::request(&target(), "p", p.as_ref());
            let id = call.request_id();
            call.args().put_long(7);
            call.args().put_string("x");
            let body = call.into_body();

            let mut incoming = IncomingCall::parse(body, p.as_ref()).unwrap();
            assert_eq!(incoming.request_id, id);
            assert_eq!(incoming.target, target());
            assert_eq!(incoming.method, "p");
            assert_eq!(incoming.args.get_long().unwrap(), 7);
            assert_eq!(incoming.args.get_string().unwrap(), "x");
            assert!(incoming.args.at_end());
        }
    }

    /// A request carrying the trailing context section still parses
    /// identically for a reader that only consumes the declared fields,
    /// and the context is recoverable from the tail.
    #[test]
    fn request_with_context_is_old_reader_compatible() {
        for p in protocols() {
            let mut call = Call::request(&target(), "p", p.as_ref());
            let id = call.request_id();
            call.args().put_long(7);
            assert!(call.attach_context(p.as_ref(), CallContext { call_id: id, parent_id: 3 }));
            let body = call.into_body();

            assert_eq!(p.extract_context(&body), Some((id, 3)));
            // The "old reader": parses header + declared args, stops there.
            let mut incoming = IncomingCall::parse(body, p.as_ref()).unwrap();
            assert_eq!(incoming.request_id, id);
            assert_eq!(incoming.method, "p");
            assert_eq!(incoming.args.get_long().unwrap(), 7);
        }
    }

    /// A request carrying both the token and context sections parses
    /// identically for an old reader, and each tail is recoverable —
    /// including the key the `@cached` cache keys on, which must exclude
    /// the request id and both suffixes.
    #[test]
    fn request_with_token_and_context_is_old_reader_compatible() {
        for p in protocols() {
            let mut plain = Call::request(&target(), "p", p.as_ref());
            plain.args().put_long(7);
            let plain_span = plain.cache_key_span();
            let plain = plain.into_body();

            let mut call = Call::request(&target(), "p", p.as_ref());
            let id = call.request_id();
            call.args().put_long(7);
            assert!(call.attach_token(p.as_ref(), InvocationToken { session: 99, seq: 5 }));
            assert!(call.attach_context(p.as_ref(), CallContext { call_id: id, parent_id: 3 }));
            let span = call.cache_key_span();
            let body = call.into_body();
            assert_eq!(body[span], plain[plain_span], "{}", p.name());

            assert_eq!(
                extract_invocation_token(&body, p.as_ref()),
                Some(InvocationToken { session: 99, seq: 5 })
            );
            assert_eq!(p.extract_context(&body), Some((id, 3)));
            // The "old reader": parses header + declared args, stops there.
            let mut incoming = IncomingCall::parse(body, p.as_ref()).unwrap();
            assert_eq!(incoming.request_id, id);
            assert_eq!(incoming.method, "p");
            assert_eq!(incoming.args.get_long().unwrap(), 7);
        }
    }

    #[test]
    fn request_ids_are_unique_per_call() {
        let a = Call::request(&target(), "p", &TextProtocol).request_id();
        let b = Call::request(&target(), "p", &TextProtocol).request_id();
        assert_ne!(a, b);
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn peek_helpers_read_headers_without_consuming() {
        let limits = DecodeLimits::default();
        for p in protocols() {
            let call = Call::oneway(&target(), "stop", p.as_ref());
            let id = call.request_id();
            let body = call.into_body();
            let route = RequestHead {
                request_id: id,
                response_expected: false,
                object_id: Some(42),
                ack: None,
            };
            assert_eq!(peek_route(&body, p.as_ref(), &limits).unwrap(), route);
            // The body is untouched and still parses fully.
            let incoming = IncomingCall::parse(body, p.as_ref()).unwrap();
            assert_eq!(incoming.request_id, id);

            // A credit ack's arguments are read in the same pass.
            let ack =
                ObjectRef::new(Endpoint::new("tcp", "h", 1), STREAM_ACK_OBJECT_ID, "IDL:A:1.0");
            for (args, read) in [(&[8, 32][..], Some((8, 32))), (&[8], None)] {
                let mut call = Call::oneway(&ack, "ack", p.as_ref());
                for &arg in args {
                    call.args().put_ulonglong(arg);
                }
                let route = peek_route(&call.into_body(), p.as_ref(), &limits).unwrap();
                assert_eq!((route.object_id, route.ack), (Some(STREAM_ACK_OBJECT_ID), read));
            }

            let reply = ReplyBuilder::ok(p.as_ref(), 71).into_body();
            assert_eq!(peek_reply_id(&reply, p.as_ref()).unwrap(), 71);
            assert_eq!(Reply::parse(reply, p.as_ref()).unwrap().request_id(), 71);
        }
    }

    #[test]
    fn ok_reply_roundtrip() {
        for p in protocols() {
            let mut rb = ReplyBuilder::ok(p.as_ref(), 5);
            rb.results().put_long(99);
            let body = rb.into_body();
            let mut reply = Reply::parse(body, p.as_ref()).unwrap();
            assert_eq!(reply.request_id(), 5);
            assert_eq!(reply.results().get_long().unwrap(), 99);
        }
    }

    #[test]
    fn user_exception_reply_surfaces_as_remote_error() {
        for p in protocols() {
            let body = ReplyBuilder::exception(
                p.as_ref(),
                9,
                ReplyStatus::UserException,
                "IDL:Heidi/Broken:1.0",
                "subsystem offline",
            );
            let err = Reply::parse(body, p.as_ref()).unwrap_err();
            let RmiError::Remote { repo_id, detail } = err else { panic!("wrong error") };
            assert_eq!(repo_id, "IDL:Heidi/Broken:1.0");
            assert_eq!(detail, "subsystem offline");
        }
    }

    #[test]
    fn request_header_is_readable_on_text_protocol() {
        let call = Call::request(&target(), "play", &TextProtocol);
        let id = call.request_id();
        let body = call.into_body();
        let text = String::from_utf8(body).unwrap();
        // Fig 4's header: the request id, then the stringified reference,
        // all still readable (and typable) over telnet.
        let expect = format!("{id} \"@tcp:localhost:1234#42#IDL:Heidi/A:1.0\" \"play\" T");
        assert!(text.starts_with(&expect), "{text}");
    }

    #[test]
    fn busy_reply_surfaces_as_server_busy_error() {
        for p in protocols() {
            let body = ReplyBuilder::busy(p.as_ref(), 12, "in-flight cap (4) reached");
            let (id, status) = peek_reply_status(&body, p.as_ref()).unwrap();
            assert_eq!(id, 12);
            assert_eq!(status, ReplyStatus::Busy);
            let err = Reply::parse(body, p.as_ref()).unwrap_err();
            let RmiError::ServerBusy { detail } = err else { panic!("wrong error") };
            assert_eq!(detail, "in-flight cap (4) reached");
        }
    }

    #[test]
    fn busy_reply_is_readable_on_text_protocol() {
        let body = ReplyBuilder::busy(&TextProtocol, 7, "draining");
        let text = String::from_utf8(body).unwrap();
        assert_eq!(text, r#"7 3 "IDL:heidl/ServerBusy:1.0" "draining""#);
    }

    #[test]
    fn limited_parse_bounds_hostile_request_headers() {
        // A 4 GB string length prefix must come back as a clean wire
        // error, not an allocation attempt.
        let mut body = 1u64.to_le_bytes().to_vec();
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let limits = DecodeLimits::strict();
        let err = IncomingCall::parse_limited(body.clone(), &CdrProtocol, &limits).unwrap_err();
        assert!(matches!(err, RmiError::Wire(_)), "{err}");
        let err = peek_route(&body, &CdrProtocol, &limits).unwrap_err();
        assert!(matches!(err, RmiError::Wire(_)), "{err}");
    }

    #[test]
    fn bad_status_byte_is_a_protocol_error() {
        let p = TextProtocol;
        let mut enc = p.encoder();
        enc.put_ulonglong(1);
        enc.put_octet(9);
        let err = Reply::parse(enc.finish(), &p).unwrap_err();
        assert!(matches!(err, RmiError::Protocol(_)));
    }

    #[test]
    fn call_accessors() {
        let call = Call::request(&target(), "f", &TextProtocol);
        assert_eq!(call.method(), "f");
        assert_eq!(call.target(), &target());
        assert!(format!("{call:?}").contains("f"));
    }

    #[test]
    fn incoming_call_with_bad_reference_fails() {
        let p = TextProtocol;
        let mut enc = p.encoder();
        enc.put_ulonglong(3);
        enc.put_string("not-a-reference");
        enc.put_string("m");
        let err = IncomingCall::parse(enc.finish(), &p).unwrap_err();
        assert!(matches!(err, RmiError::BadReference { .. }));
    }
}
