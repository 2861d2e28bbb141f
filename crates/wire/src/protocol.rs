//! Protocol objects: codec factories plus stream framing.
//!
//! An [`ObjectCommunicator`](https://docs.rs/heidl-rmi) "provides the
//! abstraction of a communication channel on which individual requests can
//! be demarcated" (paper §3.1). The [`Protocol`] trait bundles the two
//! halves of that: how message bodies are encoded ([`Encoder`] /
//! [`Decoder`]) and how bodies are demarcated on a byte stream
//! ([`Protocol::frame`] / [`Protocol::deframe`]).
//!
//! Two protocols ship, mirroring the paper's design space:
//!
//! * [`TextProtocol`] — HeidiRMI's newline-terminated ASCII protocol;
//! * [`CdrProtocol`] — a GIOP-lite binary protocol (12-byte header with
//!   magic, version, flags and body length; CDR body).
//!
//! On both protocols the RMI layer leads every request and reply body
//! with a `ulonglong` request id, so replies can be correlated to calls
//! and one connection can carry many interleaved requests.

use crate::cdr::{CdrDecoder, CdrEncoder};
use crate::codec::{Decoder, Encoder};
use crate::error::{WireError, WireResult};
use crate::limits::DecodeLimits;
use crate::pool::{self, FrameBuf, PooledBuf};
use crate::text::{TextDecoder, TextEncoder};
use std::fmt;

/// Scratch space large enough for any shipped protocol's frame header
/// (GIOP-lite uses 12 bytes); see [`Protocol::frame_parts`].
pub const MAX_FRAME_HEADER: usize = 16;

/// Marker token opening the optional trailing call-context section on the
/// text protocol: a request line may end with `"~ctx" <call-id> <parent-id>`.
/// `~` cannot start any ordinary text token (tokens are quoted strings,
/// chars, numbers, booleans, or braces), so old readers — which stop after
/// the declared arguments anyway — never trip over it, and a human can type
/// it over telnet.
pub const TEXT_CONTEXT_MARKER: &str = "~ctx";

/// Magic closing the optional trailing call-context section on the CDR
/// protocol: the last 20 body bytes are `call-id (u64 LE) · parent-id
/// (u64 LE) · "HCX1"`. Old readers never look past the declared arguments,
/// so the section is invisible to them.
pub const CDR_CONTEXT_MAGIC: &[u8; 4] = b"HCX1";

/// Byte length of the CDR trailing context section (two `u64` ids plus the
/// closing magic).
pub const CDR_CONTEXT_LEN: usize = 20;

/// Marker token opening the optional trailing invocation-token section on
/// the text protocol: a request line may carry `"~tok" <session> <seq>`
/// after its declared arguments. Like [`TEXT_CONTEXT_MARKER`], `~` cannot
/// start any ordinary text token, so positional old readers never see it,
/// and a human can retype the same token over telnet to exercise the
/// server's exactly-once replay path.
pub const TEXT_TOKEN_MARKER: &str = "~tok";

/// Magic closing the optional trailing invocation-token section on the CDR
/// protocol: the section is `session (u64 LE) · seq (u64 LE) · pad (u32) ·
/// "HTK1"`. Old readers never look past the declared arguments, so the
/// section is invisible to them.
pub const CDR_TOKEN_MAGIC: &[u8; 4] = b"HTK1";

/// Byte length of the CDR trailing invocation-token section (two `u64`
/// ids, a `u32` pad, and the closing magic). The pad keeps the section end
/// 8-aligned, so a context section appended after it starts unpadded and
/// both sections sit at fixed offsets from the end of the body.
pub const CDR_TOKEN_LEN: usize = 24;

/// Marker token opening the optional trailing **chunk section** on the
/// text protocol: a frame belonging to a chunked stream ends with
/// `"~chunk" <n> <last>`, where `<n>` is the zero-based chunk index and
/// `<last>` is `0` or `1`. Like the `~tok`/`~ctx` markers, `~` cannot
/// start any ordinary text token, so positional old readers never see the
/// section, and a human can hand-type a chunked transfer over telnet.
pub const TEXT_CHUNK_MARKER: &str = "~chunk";

/// Magic closing the optional trailing chunk section on the CDR protocol:
/// the section is `index (u64 LE) · last (u32 LE, 0 or 1) · "HCH1"`. Old
/// readers never look past the declared fields, so the section is
/// invisible to them.
pub const CDR_CHUNK_MAGIC: &[u8; 4] = b"HCH1";

/// Byte length of the CDR trailing chunk section (a `u64` index, a `u32`
/// last-flag, and the closing magic). The section is written as raw
/// octets — never alignment-padded — so it is always exactly the last 16
/// bytes of the frame and strips away cleanly to expose the token and
/// context tails beneath it.
pub const CDR_CHUNK_LEN: usize = 16;

/// A wire protocol: codec factory + request demarcation.
pub trait Protocol: Send + Sync + fmt::Debug {
    /// Short protocol name used in stringified object references
    /// (`@tcp`, …) and diagnostics.
    fn name(&self) -> &'static str;

    /// Creates an encoder for one message body.
    fn encoder(&self) -> Box<dyn Encoder>;

    /// Creates a decoder over a received message body.
    ///
    /// # Errors
    ///
    /// Text bodies that are not valid UTF-8 fail here.
    fn decoder(&self, body: Vec<u8>) -> WireResult<Box<dyn Decoder>>;

    /// Appends `body`, framed for the stream, to `out`.
    fn frame(&self, body: &[u8], out: &mut Vec<u8>);

    /// Extracts the next complete message body from `buf`, removing its
    /// bytes, or returns `Ok(None)` when more input is needed.
    ///
    /// # Errors
    ///
    /// Fails on stream corruption (bad magic, oversized length, embedded
    /// framing bytes).
    fn deframe(&self, buf: &mut Vec<u8>) -> WireResult<Option<Vec<u8>>>;

    /// Creates a decoder enforcing explicit [`DecodeLimits`]. The default
    /// implementation ignores the limits (third-party protocols keep
    /// compiling); both shipped protocols override it.
    ///
    /// # Errors
    ///
    /// As [`Protocol::decoder`], plus limit violations surfaced while the
    /// body is tokenized (text protocol).
    fn decoder_with_limits(
        &self,
        body: Vec<u8>,
        limits: &DecodeLimits,
    ) -> WireResult<Box<dyn Decoder>> {
        let _ = limits;
        self.decoder(body)
    }

    /// Deframes under explicit [`DecodeLimits`]: an oversized length
    /// prefix (or a delimiter search that has already buffered more than
    /// `max_frame_bytes`) is a clean error before any allocation. The
    /// default implementation ignores the limits; both shipped protocols
    /// override it.
    ///
    /// # Errors
    ///
    /// As [`Protocol::deframe`], plus [`WireError::Bounds`] when a frame
    /// exceeds `limits.max_frame_bytes`.
    fn deframe_limited(
        &self,
        buf: &mut Vec<u8>,
        limits: &DecodeLimits,
    ) -> WireResult<Option<Vec<u8>>> {
        let _ = limits;
        self.deframe(buf)
    }

    /// Describes the frame layout as header + body + trailer so callers
    /// can write a frame without materializing it: the header (at most
    /// [`MAX_FRAME_HEADER`] bytes) is rendered into caller-provided stack
    /// scratch and `Some((header_len, trailer))` is returned. Protocols
    /// whose framing cannot be expressed this way return `None` (the
    /// default), and callers fall back to [`Protocol::frame`].
    fn frame_parts(
        &self,
        body_len: usize,
        header: &mut [u8; MAX_FRAME_HEADER],
    ) -> Option<(usize, &'static [u8])> {
        let _ = (body_len, header);
        None
    }

    /// Extracts the next complete message body from a [`FrameBuf`] read
    /// cursor, consuming its bytes, or returns `Ok(None)` when more input
    /// is needed. The body comes back in one pooled buffer — the shipped
    /// protocols copy each frame exactly once, instead of the
    /// drain-then-copy the `Vec`-based [`Protocol::deframe`] performs.
    ///
    /// The default implementation adapts [`Protocol::deframe_limited`]
    /// (third-party protocols keep compiling, with one extra copy); both
    /// shipped protocols override it with a single-copy cursor path whose
    /// accept/reject behavior is byte-identical to the legacy entry
    /// points.
    ///
    /// # Errors
    ///
    /// As [`Protocol::deframe_limited`].
    fn deframe_pooled(
        &self,
        buf: &mut FrameBuf,
        limits: &DecodeLimits,
    ) -> WireResult<Option<PooledBuf>> {
        let mut legacy: Vec<u8> = buf.bytes().to_vec();
        let before = legacy.len();
        let body = self.deframe_limited(&mut legacy, limits)?;
        buf.consume(before - legacy.len());
        Ok(body.map(PooledBuf::from))
    }

    /// Creates a decoder *borrowing* `body`, for peeking at routing fields
    /// (request id, target, status) without copying the whole message.
    /// The default copies (third-party protocols keep compiling); both
    /// shipped protocols override it with a zero-copy borrow.
    ///
    /// # Errors
    ///
    /// As [`Protocol::decoder_with_limits`].
    fn peek_decoder<'a>(
        &self,
        body: &'a [u8],
        limits: &DecodeLimits,
    ) -> WireResult<Box<dyn Decoder + 'a>> {
        let boxed: Box<dyn Decoder> = self.decoder_with_limits(body.to_vec(), limits)?;
        Ok(boxed)
    }

    /// Appends an optional **trailing call-context section** (call id +
    /// parent id) to a message being encoded. Must be called after every
    /// declared field has been put; readers that do not know about the
    /// section — including every pre-context peer — never look past the
    /// declared fields, so the section is backward compatible by
    /// construction. Returns `false` (and encodes nothing) for protocols
    /// without a context encoding — the default, so third-party protocols
    /// keep compiling.
    fn encode_context(&self, enc: &mut dyn Encoder, call_id: u64, parent_id: u64) -> bool {
        let _ = (enc, call_id, parent_id);
        false
    }

    /// Extracts the trailing call-context section from a received body, if
    /// present, as `(call_id, parent_id)`. `None` when the body carries no
    /// context (or the protocol has no context encoding — the default).
    ///
    /// Extraction is a tail inspection only: it never affects how the
    /// declared fields decode, and a body without the section is left
    /// byte-identical to a pre-context peer's view.
    fn extract_context(&self, body: &[u8]) -> Option<(u64, u64)> {
        let _ = body;
        None
    }

    /// Appends an optional **trailing invocation-token section** (session
    /// id + per-session sequence number) to a message being encoded. Same
    /// backward-compatibility contract as [`Protocol::encode_context`]:
    /// old readers are positional and never look past the declared fields.
    ///
    /// When a message carries both suffixes the token section comes
    /// *first* and the context section *last*, so each stays at a fixed
    /// position from the end of the body. Returns `false` (and encodes
    /// nothing) for protocols without a token encoding — the default.
    fn encode_token(&self, enc: &mut dyn Encoder, session: u64, seq: u64) -> bool {
        let _ = (enc, session, seq);
        false
    }

    /// Extracts the trailing invocation-token section from a received
    /// body, if present, as `(session, seq)`. `None` when the body carries
    /// no token (or the protocol has no token encoding — the default).
    ///
    /// Like [`Protocol::extract_context`] this is a tail inspection only;
    /// it tolerates a context section appended after the token.
    fn extract_token(&self, body: &[u8]) -> Option<(u64, u64)> {
        let _ = body;
        None
    }

    /// Appends an optional **trailing chunk section** (`index`, `last`)
    /// marking this frame as one piece of a chunked stream. Same
    /// backward-compatibility contract as the token and context sections:
    /// old positional readers never look past the declared fields. When a
    /// frame carries several suffixes the chunk section is the
    /// *outermost* — encode order is token, context, chunk. Returns
    /// `false` (and encodes nothing) for protocols without a chunk
    /// encoding — the default.
    fn encode_chunk(&self, enc: &mut dyn Encoder, index: u64, last: bool) -> bool {
        let _ = (enc, index, last);
        false
    }

    /// Extracts the trailing chunk section from a received body, if
    /// present, as `(index, last)`. `None` when the body carries no chunk
    /// section (or the protocol has no chunk encoding — the default).
    ///
    /// A tail inspection only, like [`Protocol::extract_context`]; the
    /// declared fields decode identically with or without the section.
    fn extract_chunk(&self, body: &[u8]) -> Option<(u64, bool)> {
        let _ = body;
        None
    }
}

/// Splits the last whitespace-separated word off `line`: `(rest, word)`.
fn last_word(line: &[u8]) -> (&[u8], &[u8]) {
    let line = line.trim_ascii_end();
    line.split_at(line.iter().rposition(u8::is_ascii_whitespace).map_or(0, |i| i + 1))
}

/// Splits one trailing text section `"<marker>" <a> <b>` off the end of
/// `line`, walking words backwards so the cost is the section's, not the
/// body's: `(rest, a, b)`, with `a` checked to be an unsigned integer.
/// The marker must stand as a token of its own — a string argument that
/// contains the marker bytes encodes with escaped quotes (`\"~ctx\"`), so
/// its word never equals the marker. As the tokenizer reads a closing
/// quote, `a` may be glued to the marker (`"~ctx"42 7`).
fn split_text_tail<'a>(line: &'a [u8], marker: &str) -> Option<(&'a [u8], u64, &'a str)> {
    let (rest, b) = last_word(line);
    let (rest, a) = last_word(rest);
    fn quoted<'w>(w: &'w [u8], marker: &str) -> Option<&'w [u8]> {
        w.strip_prefix(b"\"")?.strip_prefix(marker.as_bytes())?.strip_prefix(b"\"")
    }
    let (rest, a) = match quoted(a, marker) {
        Some(glued) => (rest, glued),
        None => {
            let (rest, m) = last_word(rest);
            quoted(m, marker).filter(|after| after.is_empty())?;
            (rest, a)
        }
    };
    Some((rest, std::str::from_utf8(a).ok()?.parse().ok()?, std::str::from_utf8(b).ok()?))
}

/// Strips one trailing text chunk section (`"~chunk" <n> <last>`), if
/// present and well-formed, so the token/context extractors can inspect
/// the tail beneath it.
fn strip_text_chunk(line: &[u8]) -> &[u8] {
    match split_text_tail(line, TEXT_CHUNK_MARKER) {
        Some((rest, _, "0" | "1")) => rest,
        _ => line,
    }
}

/// Strips one trailing CDR chunk section, if present, so the
/// token/context extractors can inspect the tail beneath it.
fn cdr_strip_chunk(body: &[u8]) -> &[u8] {
    let n = body.len();
    if n >= CDR_CHUNK_LEN && &body[n - 4..] == CDR_CHUNK_MAGIC {
        let last = u32::from_le_bytes(body[n - 8..n - 4].try_into().expect("4 bytes"));
        if last <= 1 {
            return &body[..n - CDR_CHUNK_LEN];
        }
    }
    body
}

/// The HeidiRMI text protocol: one newline-terminated line per message.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextProtocol;

impl Protocol for TextProtocol {
    fn name(&self) -> &'static str {
        "tcp" // the paper's references spell the endpoint `@tcp:host:port`
    }

    fn encoder(&self) -> Box<dyn Encoder> {
        Box::new(TextEncoder::new())
    }

    fn decoder(&self, body: Vec<u8>) -> WireResult<Box<dyn Decoder>> {
        self.decoder_with_limits(body, &DecodeLimits::default())
    }

    fn frame(&self, body: &[u8], out: &mut Vec<u8>) {
        debug_assert!(
            !body.contains(&b'\n'),
            "text protocol bodies are single lines by construction"
        );
        out.extend_from_slice(body);
        out.push(b'\n');
    }

    fn deframe(&self, buf: &mut Vec<u8>) -> WireResult<Option<Vec<u8>>> {
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let mut line: Vec<u8> = buf.drain(..=nl).collect();
        line.pop(); // the newline
                    // Tolerate CRLF from telnet clients.
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    fn decoder_with_limits(
        &self,
        body: Vec<u8>,
        limits: &DecodeLimits,
    ) -> WireResult<Box<dyn Decoder>> {
        // The decoder reads in place; the body's storage recycles with it.
        Ok(Box::new(TextDecoder::validated(PooledBuf::from(body), *limits)?))
    }

    fn deframe_limited(
        &self,
        buf: &mut Vec<u8>,
        limits: &DecodeLimits,
    ) -> WireResult<Option<Vec<u8>>> {
        // A line with no terminator has no length prefix to check, so the
        // bound is on *buffered* bytes: a peer streaming gigabytes without
        // ever sending `\n` must not grow our buffer forever.
        let line = self.deframe(buf)?;
        let buffered = line.as_ref().map_or(buf.len(), Vec::len);
        if buffered as u64 > limits.max_frame_bytes {
            return Err(WireError::Bounds {
                what: "text frame",
                len: buffered as u64,
                max: limits.max_frame_bytes,
            });
        }
        Ok(line)
    }

    fn frame_parts(
        &self,
        _body_len: usize,
        _header: &mut [u8; MAX_FRAME_HEADER],
    ) -> Option<(usize, &'static [u8])> {
        Some((0, b"\n"))
    }

    fn deframe_pooled(
        &self,
        buf: &mut FrameBuf,
        limits: &DecodeLimits,
    ) -> WireResult<Option<PooledBuf>> {
        let (nl, end) = {
            let bytes = buf.bytes();
            let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
                // No terminator yet: the bound is on buffered bytes, as in
                // `deframe_limited`.
                if bytes.len() as u64 > limits.max_frame_bytes {
                    return Err(WireError::Bounds {
                        what: "text frame",
                        len: bytes.len() as u64,
                        max: limits.max_frame_bytes,
                    });
                }
                return Ok(None);
            };
            // Tolerate CRLF from telnet clients.
            let end = if nl > 0 && bytes[nl - 1] == b'\r' { nl - 1 } else { nl };
            (nl, end)
        };
        if end as u64 > limits.max_frame_bytes {
            // Match `deframe_limited`: the over-long line is consumed off
            // the stream, then rejected.
            buf.consume(nl + 1);
            return Err(WireError::Bounds {
                what: "text frame",
                len: end as u64,
                max: limits.max_frame_bytes,
            });
        }
        let mut body = pool::global().get();
        body.extend_from_slice(&buf.bytes()[..end]);
        buf.consume(nl + 1);
        Ok(Some(body))
    }

    fn peek_decoder<'a>(
        &self,
        body: &'a [u8],
        limits: &DecodeLimits,
    ) -> WireResult<Box<dyn Decoder + 'a>> {
        // Lazy: a header peek scans only the tokens it reads, and a
        // malformed token past them is the full parse's to report.
        Ok(Box::new(TextDecoder::peek(body, *limits)))
    }

    fn encode_context(&self, enc: &mut dyn Encoder, call_id: u64, parent_id: u64) -> bool {
        // Three ordinary tokens: the line stays printable and a telnet user
        // can append ` "~ctx" 42 7` to a hand-typed request.
        enc.put_string(TEXT_CONTEXT_MARKER);
        enc.put_ulonglong(call_id);
        enc.put_ulonglong(parent_id);
        true
    }

    fn extract_context(&self, body: &[u8]) -> Option<(u64, u64)> {
        // The chunk section is the outermost suffix; beneath it the
        // context section, when present, runs to end-of-line.
        let (_, call_id, parent_id) = split_text_tail(strip_text_chunk(body), TEXT_CONTEXT_MARKER)?;
        Some((call_id, parent_id.parse().ok()?))
    }

    fn encode_token(&self, enc: &mut dyn Encoder, session: u64, seq: u64) -> bool {
        // Three ordinary tokens, just like the context section: the line
        // stays printable and a telnet user can append ` "~tok" 12345 1`
        // to a hand-typed request (and retype it to trigger a replay).
        enc.put_string(TEXT_TOKEN_MARKER);
        enc.put_ulonglong(session);
        enc.put_ulonglong(seq);
        true
    }

    fn extract_token(&self, body: &[u8]) -> Option<(u64, u64)> {
        // Beneath the chunk section the token section runs either to
        // end-of-line or to a complete context section — the one suffix
        // allowed after a token.
        let line = strip_text_chunk(body);
        let (_, session, seq) = split_text_tail(line, TEXT_TOKEN_MARKER).or_else(|| {
            let (line, _, parent_id) = split_text_tail(line, TEXT_CONTEXT_MARKER)?;
            parent_id.parse::<u64>().ok()?;
            split_text_tail(line, TEXT_TOKEN_MARKER)
        })?;
        Some((session, seq.parse().ok()?))
    }

    fn encode_chunk(&self, enc: &mut dyn Encoder, index: u64, last: bool) -> bool {
        // Three ordinary tokens: the line stays printable, so a telnet user
        // can hand-type a chunked transfer by ending each line with
        // ` "~chunk" <n> 0` and the final one with ` "~chunk" <n> 1`.
        enc.put_string(TEXT_CHUNK_MARKER);
        enc.put_ulonglong(index);
        enc.put_ulonglong(u64::from(last));
        true
    }

    fn extract_chunk(&self, body: &[u8]) -> Option<(u64, bool)> {
        // The section is the outermost suffix: it runs to end-of-line,
        // with the last-flag restricted to 0 or 1.
        match split_text_tail(body, TEXT_CHUNK_MARKER)? {
            (_, index, "0") => Some((index, false)),
            (_, index, "1") => Some((index, true)),
            _ => None,
        }
    }
}

/// GIOP-lite header: magic, version 1.0, flags (bit 0 = little-endian),
/// message type, and body length.
const GIOP_MAGIC: &[u8; 4] = b"GIOP";
const GIOP_HEADER_LEN: usize = 12;
/// Upper bound on a sane message body, mirroring the codec's limit.
const MAX_BODY: u32 = 64 * 1024 * 1024;

/// The binary protocol: GIOP-lite framing around CDR bodies.
#[derive(Debug, Clone, Copy, Default)]
pub struct CdrProtocol;

impl Protocol for CdrProtocol {
    fn name(&self) -> &'static str {
        "giop"
    }

    fn encoder(&self) -> Box<dyn Encoder> {
        Box::new(CdrEncoder::new())
    }

    fn decoder(&self, body: Vec<u8>) -> WireResult<Box<dyn Decoder>> {
        // Wrapping the body as a PooledBuf recycles its storage when the
        // decoder is dropped.
        Ok(Box::new(CdrDecoder::new(PooledBuf::from(body))))
    }

    fn frame(&self, body: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(GIOP_MAGIC);
        out.push(1); // major
        out.push(0); // minor
        out.push(0x01); // flags: little-endian
        out.push(0); // message type (request/reply distinction lives in the body)
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
    }

    fn deframe(&self, buf: &mut Vec<u8>) -> WireResult<Option<Vec<u8>>> {
        if buf.len() < GIOP_HEADER_LEN {
            return Ok(None);
        }
        if &buf[..4] != GIOP_MAGIC {
            return Err(WireError::Malformed {
                what: "GIOP header",
                detail: format!("bad magic {:?}", &buf[..4]),
            });
        }
        if buf[4] != 1 {
            return Err(WireError::Malformed {
                what: "GIOP header",
                detail: format!("unsupported major version {}", buf[4]),
            });
        }
        let len = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if len > MAX_BODY {
            return Err(WireError::Bounds {
                what: "GIOP body",
                len: len.into(),
                max: MAX_BODY.into(),
            });
        }
        let total = GIOP_HEADER_LEN + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let frame: Vec<u8> = buf.drain(..total).collect();
        Ok(Some(frame[GIOP_HEADER_LEN..].to_vec()))
    }

    fn decoder_with_limits(
        &self,
        body: Vec<u8>,
        limits: &DecodeLimits,
    ) -> WireResult<Box<dyn Decoder>> {
        Ok(Box::new(CdrDecoder::with_limits(PooledBuf::from(body), *limits)))
    }

    fn deframe_limited(
        &self,
        buf: &mut Vec<u8>,
        limits: &DecodeLimits,
    ) -> WireResult<Option<Vec<u8>>> {
        // The declared body length is checked against the policy bound
        // *before* waiting for (or allocating room for) the body: a 4 GB
        // length prefix costs the attacker 12 bytes and us nothing.
        if buf.len() >= GIOP_HEADER_LEN && &buf[..4] == GIOP_MAGIC {
            let len = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
            let max = limits.max_frame_bytes.min(u64::from(MAX_BODY));
            if u64::from(len) > max {
                return Err(WireError::Bounds { what: "GIOP body", len: len.into(), max });
            }
        }
        self.deframe(buf)
    }

    fn frame_parts(
        &self,
        body_len: usize,
        header: &mut [u8; MAX_FRAME_HEADER],
    ) -> Option<(usize, &'static [u8])> {
        header[..4].copy_from_slice(GIOP_MAGIC);
        header[4] = 1; // major
        header[5] = 0; // minor
        header[6] = 0x01; // flags: little-endian
        header[7] = 0; // message type
        header[8..GIOP_HEADER_LEN].copy_from_slice(&(body_len as u32).to_le_bytes());
        Some((GIOP_HEADER_LEN, b""))
    }

    fn deframe_pooled(
        &self,
        buf: &mut FrameBuf,
        limits: &DecodeLimits,
    ) -> WireResult<Option<PooledBuf>> {
        let total = {
            let bytes = buf.bytes();
            if bytes.len() < GIOP_HEADER_LEN {
                return Ok(None);
            }
            if &bytes[..4] != GIOP_MAGIC {
                return Err(WireError::Malformed {
                    what: "GIOP header",
                    detail: format!("bad magic {:?}", &bytes[..4]),
                });
            }
            if bytes[4] != 1 {
                return Err(WireError::Malformed {
                    what: "GIOP header",
                    detail: format!("unsupported major version {}", bytes[4]),
                });
            }
            // The declared length is checked against both the policy bound
            // and the protocol sanity bound before any allocation.
            let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
            let max = limits.max_frame_bytes.min(u64::from(MAX_BODY));
            if u64::from(len) > max {
                return Err(WireError::Bounds { what: "GIOP body", len: len.into(), max });
            }
            let total = GIOP_HEADER_LEN + len as usize;
            if bytes.len() < total {
                return Ok(None);
            }
            total
        };
        let mut body = pool::global().get();
        body.extend_from_slice(&buf.bytes()[GIOP_HEADER_LEN..total]);
        buf.consume(total);
        Ok(Some(body))
    }

    fn peek_decoder<'a>(
        &self,
        body: &'a [u8],
        limits: &DecodeLimits,
    ) -> WireResult<Box<dyn Decoder + 'a>> {
        Ok(Box::new(CdrDecoder::with_limits(body, *limits)))
    }

    fn encode_context(&self, enc: &mut dyn Encoder, call_id: u64, parent_id: u64) -> bool {
        // Two aligned u64s then the u32 magic. After the first id the
        // position is 8-aligned, so the ids and the magic are contiguous:
        // the section always occupies exactly the last CDR_CONTEXT_LEN
        // bytes of the body, wherever the arguments left the cursor.
        enc.put_ulonglong(call_id);
        enc.put_ulonglong(parent_id);
        enc.put_ulong(u32::from_le_bytes(*CDR_CONTEXT_MAGIC));
        true
    }

    fn extract_context(&self, body: &[u8]) -> Option<(u64, u64)> {
        // The chunk section is the outermost suffix; look beneath it.
        let body = cdr_strip_chunk(body);
        let n = body.len();
        if n < CDR_CONTEXT_LEN || &body[n - 4..] != CDR_CONTEXT_MAGIC {
            return None;
        }
        let call_id = u64::from_le_bytes(body[n - 20..n - 12].try_into().expect("8 bytes"));
        let parent_id = u64::from_le_bytes(body[n - 12..n - 4].try_into().expect("8 bytes"));
        Some((call_id, parent_id))
    }

    fn encode_token(&self, enc: &mut dyn Encoder, session: u64, seq: u64) -> bool {
        // Two aligned u64s, a pad word, then the u32 magic. The first id
        // 8-aligns the cursor, so the section is 24 contiguous bytes
        // ending 8-aligned — a context section encoded after it needs no
        // alignment padding, keeping both tails at fixed offsets from the
        // end of the body.
        enc.put_ulonglong(session);
        enc.put_ulonglong(seq);
        enc.put_ulong(0);
        enc.put_ulong(u32::from_le_bytes(*CDR_TOKEN_MAGIC));
        true
    }

    fn extract_token(&self, body: &[u8]) -> Option<(u64, u64)> {
        // The chunk section is the outermost suffix; look beneath it.
        let body = cdr_strip_chunk(body);
        let n = body.len();
        // Token alone: the section is the last CDR_TOKEN_LEN bytes. Token
        // + context: the context section occupies the last CDR_CONTEXT_LEN
        // bytes and the token section sits immediately before it.
        let magic_end = if n >= CDR_TOKEN_LEN && &body[n - 4..] == CDR_TOKEN_MAGIC {
            n
        } else if n >= CDR_CONTEXT_LEN + CDR_TOKEN_LEN
            && &body[n - 4..] == CDR_CONTEXT_MAGIC
            && &body[n - CDR_CONTEXT_LEN - 4..n - CDR_CONTEXT_LEN] == CDR_TOKEN_MAGIC
        {
            n - CDR_CONTEXT_LEN
        } else {
            return None;
        };
        let start = magic_end - CDR_TOKEN_LEN;
        let session = u64::from_le_bytes(body[start..start + 8].try_into().expect("8 bytes"));
        let seq = u64::from_le_bytes(body[start + 8..start + 16].try_into().expect("8 bytes"));
        Some((session, seq))
    }

    fn encode_chunk(&self, enc: &mut dyn Encoder, index: u64, last: bool) -> bool {
        // Raw octets, not aligned primitives: the context section ends
        // 4 mod 8, so an aligned u64 here would pick up padding that
        // depends on what the section follows — and stripping the chunk
        // tail could no longer expose the token/context tails beneath it.
        // Sixteen unpadded bytes keep the section at a fixed offset from
        // the end no matter where the underlying body stopped.
        for b in index.to_le_bytes() {
            enc.put_octet(b);
        }
        for b in u32::from(last).to_le_bytes() {
            enc.put_octet(b);
        }
        for b in *CDR_CHUNK_MAGIC {
            enc.put_octet(b);
        }
        true
    }

    fn extract_chunk(&self, body: &[u8]) -> Option<(u64, bool)> {
        let n = body.len();
        if n < CDR_CHUNK_LEN || &body[n - 4..] != CDR_CHUNK_MAGIC {
            return None;
        }
        let last = u32::from_le_bytes(body[n - 8..n - 4].try_into().expect("4 bytes"));
        if last > 1 {
            return None;
        }
        let index = u64::from_le_bytes(body[n - 16..n - 8].try_into().expect("8 bytes"));
        Some((index, last == 1))
    }
}

/// Returns the protocol registered under `name` (`"tcp"`/`"text"` or
/// `"giop"`/`"cdr"`), or `None`.
pub fn by_name(name: &str) -> Option<Box<dyn Protocol>> {
    match name {
        "tcp" | "text" => Some(Box::new(TextProtocol)),
        "giop" | "cdr" => Some(Box::new(CdrProtocol)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_roundtrip(p: &dyn Protocol) {
        let mut enc = p.encoder();
        enc.put_string("hello");
        enc.put_long(7);
        let body = enc.finish();

        let mut stream = Vec::new();
        p.frame(&body, &mut stream);
        p.frame(&body, &mut stream); // two back-to-back messages

        // Feed the stream byte by byte: deframe must wait for completeness.
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for b in stream {
            buf.push(b);
            while let Some(msg) = p.deframe(&mut buf).unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got.len(), 2);
        for msg in got {
            let mut dec = p.decoder(msg).unwrap();
            assert_eq!(dec.get_string().unwrap(), "hello");
            assert_eq!(dec.get_long().unwrap(), 7);
            assert!(dec.at_end());
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn text_framing_roundtrip_incremental() {
        frame_roundtrip(&TextProtocol);
    }

    #[test]
    fn cdr_framing_roundtrip_incremental() {
        frame_roundtrip(&CdrProtocol);
    }

    #[test]
    fn text_deframe_tolerates_crlf() {
        let mut buf = b"\"print\" 1\r\n".to_vec();
        let msg = TextProtocol.deframe(&mut buf).unwrap().unwrap();
        assert_eq!(msg, b"\"print\" 1");
    }

    #[test]
    fn giop_rejects_bad_magic() {
        let mut buf = b"EVIL\x01\x00\x01\x00\x00\x00\x00\x00".to_vec();
        assert!(matches!(
            CdrProtocol.deframe(&mut buf),
            Err(WireError::Malformed { what: "GIOP header", .. })
        ));
    }

    #[test]
    fn giop_rejects_bad_version_and_huge_length() {
        let mut buf = b"GIOP\x02\x00\x01\x00\x00\x00\x00\x00".to_vec();
        assert!(CdrProtocol.deframe(&mut buf).is_err());
        let mut hdr = b"GIOP\x01\x00\x01\x00".to_vec();
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(CdrProtocol.deframe(&mut hdr), Err(WireError::Bounds { .. })));
    }

    #[test]
    fn giop_header_is_twelve_bytes() {
        let mut out = Vec::new();
        CdrProtocol.frame(b"xy", &mut out);
        assert_eq!(out.len(), 12 + 2);
        assert_eq!(&out[..4], b"GIOP");
        assert_eq!(out[6], 0x01, "little-endian flag");
    }

    #[test]
    fn partial_input_returns_none() {
        let mut buf = b"GIOP\x01\x00\x01\x00\x05\x00\x00\x00ab".to_vec();
        assert_eq!(CdrProtocol.deframe(&mut buf).unwrap(), None);
        let mut buf = b"no newline yet".to_vec();
        assert_eq!(TextProtocol.deframe(&mut buf).unwrap(), None);
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(by_name("tcp").unwrap().name(), "tcp");
        assert_eq!(by_name("text").unwrap().name(), "tcp");
        assert_eq!(by_name("giop").unwrap().name(), "giop");
        assert_eq!(by_name("cdr").unwrap().name(), "giop");
        assert!(by_name("smoke-signals").is_none());
    }

    #[test]
    fn protocol_names() {
        assert_eq!(TextProtocol.name(), "tcp");
        assert_eq!(CdrProtocol.name(), "giop");
    }

    #[test]
    fn limited_deframe_bounds_text_buffering() {
        let limits = DecodeLimits::default().with_max_frame_bytes(64);
        // Under the bound, behaves exactly like deframe.
        let mut buf = b"\"ping\" 1\n".to_vec();
        assert_eq!(
            TextProtocol.deframe_limited(&mut buf, &limits).unwrap().unwrap(),
            b"\"ping\" 1"
        );
        // A line that never ends stops being buffered at the bound.
        let mut buf = vec![b'x'; 65];
        assert!(matches!(
            TextProtocol.deframe_limited(&mut buf, &limits),
            Err(WireError::Bounds { what: "text frame", .. })
        ));
        // A complete line over the bound is rejected too.
        let mut buf = vec![b'1'; 65];
        buf.push(b'\n');
        assert!(TextProtocol.deframe_limited(&mut buf, &limits).is_err());
    }

    #[test]
    fn limited_deframe_bounds_giop_length_prefix() {
        let limits = DecodeLimits::default().with_max_frame_bytes(64);
        // A 1 GiB length prefix is rejected from the 12-byte header alone,
        // long before any body bytes arrive.
        let mut hdr = b"GIOP\x01\x00\x01\x00".to_vec();
        hdr.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(matches!(
            CdrProtocol.deframe_limited(&mut hdr, &limits),
            Err(WireError::Bounds { what: "GIOP body", .. })
        ));
        // In-bound frames pass through untouched.
        let mut framed = Vec::new();
        CdrProtocol.frame(b"ok", &mut framed);
        assert_eq!(CdrProtocol.deframe_limited(&mut framed, &limits).unwrap().unwrap(), b"ok");
    }

    #[test]
    fn decoder_with_limits_threads_through_both_protocols() {
        let limits = DecodeLimits::default().with_max_string_bytes(4);
        for p in [&TextProtocol as &dyn Protocol, &CdrProtocol] {
            let mut enc = p.encoder();
            enc.put_string("much too long");
            let body = enc.finish();
            let bounded =
                p.decoder_with_limits(body.clone(), &limits).and_then(|mut d| d.get_string());
            assert!(matches!(bounded, Err(WireError::Bounds { .. })), "{}", p.name());
            // The un-limited path still decodes it.
            assert_eq!(p.decoder(body).unwrap().get_string().unwrap(), "much too long");
        }
    }

    /// Byte-level golden frames: the wire formats are interop contracts —
    /// any change here breaks mixed-version deployments and must be
    /// deliberate.
    #[test]
    fn golden_text_frame() {
        let mut enc = TextProtocol.encoder();
        enc.put_string("ping");
        enc.put_long(-7);
        enc.put_bool(true);
        let body = enc.finish();
        let mut framed = Vec::new();
        TextProtocol.frame(&body, &mut framed);
        assert_eq!(framed, b"\"ping\" -7 T\n");
    }

    #[test]
    fn golden_giop_frame() {
        let mut enc = CdrProtocol.encoder();
        enc.put_octet(0xAB);
        enc.put_long(0x0102_0304);
        enc.put_string("hi");
        let body = enc.finish();
        let mut framed = Vec::new();
        CdrProtocol.frame(&body, &mut framed);
        let expected: Vec<u8> = [
            b"GIOP".as_slice(),        // magic
            &[1, 0],                   // version 1.0
            &[0x01],                   // flags: little-endian
            &[0],                      // message type
            &15u32.to_le_bytes(),      // body length
            &[0xAB],                   // octet
            &[0, 0, 0],                // pad to 4
            &[0x04, 0x03, 0x02, 0x01], // long, little-endian
            &3u32.to_le_bytes(),       // string byte count incl NUL
            b"hi\0",                   // string body
        ]
        .concat();
        assert_eq!(framed, expected);
    }

    /// A context-free body is byte-identical whether or not the peer knows
    /// about contexts — the encoding path is simply not taken.
    #[test]
    fn context_free_bodies_are_untouched() {
        for p in [&TextProtocol as &dyn Protocol, &CdrProtocol] {
            let mut enc = p.encoder();
            enc.put_string("ping");
            enc.put_long(-7);
            let body = enc.finish();
            assert_eq!(p.extract_context(&body), None, "{}", p.name());
        }
        assert_eq!(TextProtocol.extract_context(b""), None);
        assert_eq!(CdrProtocol.extract_context(b""), None);
    }

    /// The golden with-context text line: still one printable line a human
    /// could type over telnet.
    #[test]
    fn golden_text_frame_with_context() {
        let mut enc = TextProtocol.encoder();
        enc.put_string("ping");
        enc.put_long(-7);
        assert!(TextProtocol.encode_context(&mut *enc, 42, 7));
        let body = enc.finish();
        assert_eq!(body, b"\"ping\" -7 \"~ctx\" 42 7");
        assert_eq!(TextProtocol.extract_context(&body), Some((42, 7)));
    }

    /// The with-context body extends the plain body: an old reader decoding
    /// only the declared fields sees exactly the same bytes.
    #[test]
    fn context_section_is_a_pure_suffix_on_both_protocols() {
        for p in [&TextProtocol as &dyn Protocol, &CdrProtocol] {
            let plain = {
                let mut enc = p.encoder();
                enc.put_string("echo");
                enc.put_ulonglong(u64::MAX);
                enc.finish()
            };
            let with_ctx = {
                let mut enc = p.encoder();
                enc.put_string("echo");
                enc.put_ulonglong(u64::MAX);
                assert!(p.encode_context(&mut *enc, 1, u64::MAX));
                enc.finish()
            };
            assert!(with_ctx.starts_with(&plain), "{}", p.name());
            assert_eq!(p.extract_context(&with_ctx), Some((1, u64::MAX)), "{}", p.name());
            // Old-reader view: the declared fields decode identically.
            let mut dec = p.decoder(with_ctx).unwrap();
            assert_eq!(dec.get_string().unwrap(), "echo");
            assert_eq!(dec.get_ulonglong().unwrap(), u64::MAX);
        }
    }

    /// The CDR section is a fixed-size tail: ids at fixed offsets before the
    /// closing magic, regardless of argument alignment.
    #[test]
    fn cdr_context_tail_layout() {
        for misalign in 0..8usize {
            let mut enc = CdrProtocol.encoder();
            for _ in 0..misalign {
                enc.put_octet(0xEE);
            }
            assert!(CdrProtocol.encode_context(&mut *enc, 0x0102, 0x0304));
            let body = enc.finish();
            let n = body.len();
            assert_eq!(&body[n - 4..], CDR_CONTEXT_MAGIC);
            assert_eq!(CdrProtocol.extract_context(&body), Some((0x0102, 0x0304)));
        }
    }

    /// A hand-typed telnet line carries a context without any encoder help.
    #[test]
    fn text_context_is_hand_typable() {
        let line = b"7 \"@tcp:h:1#1#IDL:X:1.0\" \"echo\" T \"hi\" \"~ctx\" 42 7";
        assert_eq!(TextProtocol.extract_context(line), Some((42, 7)));
    }

    /// Malformed or mid-line marker bytes never parse as a context.
    #[test]
    fn text_context_rejects_lookalikes() {
        // Marker with trailing junk after the two ids.
        assert_eq!(TextProtocol.extract_context(b"1 \"~ctx\" 2 3 4"), None);
        // Marker with only one id.
        assert_eq!(TextProtocol.extract_context(b"1 \"~ctx\" 2"), None);
        // Marker glued to a preceding token (e.g. inside an escaped string).
        assert_eq!(TextProtocol.extract_context(b"1 \"a\\\"~ctx\" 2 3"), None);
        // Non-numeric ids.
        assert_eq!(TextProtocol.extract_context(b"1 \"~ctx\" x y"), None);
    }

    /// The golden with-token text line: printable and hand-typeable, with
    /// the token section before the context section when both are present.
    #[test]
    fn golden_text_frame_with_token() {
        let mut enc = TextProtocol.encoder();
        enc.put_string("ping");
        enc.put_long(-7);
        assert!(TextProtocol.encode_token(&mut *enc, 12345, 2));
        let body = enc.finish();
        assert_eq!(body, b"\"ping\" -7 \"~tok\" 12345 2");
        assert_eq!(TextProtocol.extract_token(&body), Some((12345, 2)));
        assert_eq!(TextProtocol.extract_context(&body), None);
    }

    /// Both suffixes compose: token first, context last, and each
    /// extractor finds its own section without disturbing the other.
    #[test]
    fn token_and_context_sections_compose_on_both_protocols() {
        for p in [&TextProtocol as &dyn Protocol, &CdrProtocol] {
            let plain = {
                let mut enc = p.encoder();
                enc.put_string("echo");
                enc.put_ulonglong(u64::MAX);
                enc.finish()
            };
            let both = {
                let mut enc = p.encoder();
                enc.put_string("echo");
                enc.put_ulonglong(u64::MAX);
                assert!(p.encode_token(&mut *enc, 0xABCD, 9));
                assert!(p.encode_context(&mut *enc, 1, u64::MAX));
                enc.finish()
            };
            assert!(both.starts_with(&plain), "{}", p.name());
            assert_eq!(p.extract_token(&both), Some((0xABCD, 9)), "{}", p.name());
            assert_eq!(p.extract_context(&both), Some((1, u64::MAX)), "{}", p.name());
            // Old-reader view: the declared fields decode identically.
            let mut dec = p.decoder(both).unwrap();
            assert_eq!(dec.get_string().unwrap(), "echo");
            assert_eq!(dec.get_ulonglong().unwrap(), u64::MAX);
        }
    }

    /// The CDR token section is a fixed-size tail regardless of argument
    /// alignment, alone or with a context section after it.
    #[test]
    fn cdr_token_tail_layout() {
        for misalign in 0..8usize {
            let mut enc = CdrProtocol.encoder();
            for _ in 0..misalign {
                enc.put_octet(0xEE);
            }
            assert!(CdrProtocol.encode_token(&mut *enc, 0x0A0B, 0x0C0D));
            let body = enc.finish();
            let n = body.len();
            assert_eq!(&body[n - 4..], CDR_TOKEN_MAGIC);
            assert_eq!(CdrProtocol.extract_token(&body), Some((0x0A0B, 0x0C0D)));

            let mut enc = CdrProtocol.encoder();
            for _ in 0..misalign {
                enc.put_octet(0xEE);
            }
            assert!(CdrProtocol.encode_token(&mut *enc, 0x0A0B, 0x0C0D));
            assert!(CdrProtocol.encode_context(&mut *enc, 42, 7));
            let body = enc.finish();
            let n = body.len();
            assert_eq!(&body[n - 4..], CDR_CONTEXT_MAGIC);
            assert_eq!(&body[n - CDR_CONTEXT_LEN - 4..n - CDR_CONTEXT_LEN], CDR_TOKEN_MAGIC);
            assert_eq!(CdrProtocol.extract_token(&body), Some((0x0A0B, 0x0C0D)));
            assert_eq!(CdrProtocol.extract_context(&body), Some((42, 7)));
        }
    }

    /// A hand-typed telnet line carries a token — retyping the same line is
    /// the manual replay experiment from the README.
    #[test]
    fn text_token_is_hand_typable() {
        let line = b"7 \"@tcp:h:1#1#IDL:X:1.0\" \"echo\" T \"hi\" \"~tok\" 12345 1";
        assert_eq!(TextProtocol.extract_token(line), Some((12345, 1)));
        let with_ctx =
            b"7 \"@tcp:h:1#1#IDL:X:1.0\" \"echo\" T \"hi\" \"~tok\" 12345 1 \"~ctx\" 42 7";
        assert_eq!(TextProtocol.extract_token(with_ctx), Some((12345, 1)));
        assert_eq!(TextProtocol.extract_context(with_ctx), Some((42, 7)));
    }

    /// Malformed or mid-line token marker bytes never parse as a token.
    #[test]
    fn text_token_rejects_lookalikes() {
        // Trailing junk that is not a complete context section.
        assert_eq!(TextProtocol.extract_token(b"1 \"~tok\" 2 3 4"), None);
        assert_eq!(TextProtocol.extract_token(b"1 \"~tok\" 2 3 \"~ctx\" 4"), None);
        assert_eq!(TextProtocol.extract_token(b"1 \"~tok\" 2 3 \"~ctx\" 4 5 6"), None);
        // Marker with only one id.
        assert_eq!(TextProtocol.extract_token(b"1 \"~tok\" 2"), None);
        // Marker glued to a preceding token (e.g. inside an escaped string).
        assert_eq!(TextProtocol.extract_token(b"1 \"a\\\"~tok\" 2 3"), None);
        // Non-numeric ids.
        assert_eq!(TextProtocol.extract_token(b"1 \"~tok\" x y"), None);
    }

    /// The golden chunked text line: printable, hand-typeable, and the
    /// chunk section is the outermost suffix.
    #[test]
    fn golden_text_frame_with_chunk() {
        let mut enc = TextProtocol.encoder();
        enc.put_string("part");
        enc.put_long(-7);
        assert!(TextProtocol.encode_chunk(&mut *enc, 3, false));
        let body = enc.finish();
        assert_eq!(body, b"\"part\" -7 \"~chunk\" 3 0");
        assert_eq!(TextProtocol.extract_chunk(&body), Some((3, false)));
        assert_eq!(TextProtocol.extract_token(&body), None);
        assert_eq!(TextProtocol.extract_context(&body), None);

        let mut enc = TextProtocol.encoder();
        enc.put_string("part");
        assert!(TextProtocol.encode_chunk(&mut *enc, 4, true));
        let body = enc.finish();
        assert_eq!(body, b"\"part\" \"~chunk\" 4 1");
        assert_eq!(TextProtocol.extract_chunk(&body), Some((4, true)));
    }

    /// All three suffixes compose — token, then context, then chunk — and
    /// each extractor recovers its own section; an old reader still sees
    /// the declared fields byte-identically.
    #[test]
    fn chunk_composes_with_token_and_context_on_both_protocols() {
        for p in [&TextProtocol as &dyn Protocol, &CdrProtocol] {
            let plain = {
                let mut enc = p.encoder();
                enc.put_string("echo");
                enc.put_ulonglong(u64::MAX);
                enc.finish()
            };
            let all = {
                let mut enc = p.encoder();
                enc.put_string("echo");
                enc.put_ulonglong(u64::MAX);
                assert!(p.encode_token(&mut *enc, 0xABCD, 9));
                assert!(p.encode_context(&mut *enc, 1, u64::MAX));
                assert!(p.encode_chunk(&mut *enc, 17, true));
                enc.finish()
            };
            assert!(all.starts_with(&plain), "{}", p.name());
            assert_eq!(p.extract_chunk(&all), Some((17, true)), "{}", p.name());
            assert_eq!(p.extract_token(&all), Some((0xABCD, 9)), "{}", p.name());
            assert_eq!(p.extract_context(&all), Some((1, u64::MAX)), "{}", p.name());
            let mut dec = p.decoder(all).unwrap();
            assert_eq!(dec.get_string().unwrap(), "echo");
            assert_eq!(dec.get_ulonglong().unwrap(), u64::MAX);
        }
    }

    /// The CDR chunk section is a fixed-size tail regardless of argument
    /// alignment, alone or stacked on the other suffixes.
    #[test]
    fn cdr_chunk_tail_layout() {
        for misalign in 0..8usize {
            let mut enc = CdrProtocol.encoder();
            for _ in 0..misalign {
                enc.put_octet(0xEE);
            }
            assert!(CdrProtocol.encode_chunk(&mut *enc, 0x0A0B, false));
            let body = enc.finish();
            let n = body.len();
            assert_eq!(&body[n - 4..], CDR_CHUNK_MAGIC);
            assert_eq!(CdrProtocol.extract_chunk(&body), Some((0x0A0B, false)));

            let mut enc = CdrProtocol.encoder();
            for _ in 0..misalign {
                enc.put_octet(0xEE);
            }
            assert!(CdrProtocol.encode_token(&mut *enc, 5, 6));
            assert!(CdrProtocol.encode_context(&mut *enc, 42, 7));
            assert!(CdrProtocol.encode_chunk(&mut *enc, 9, true));
            let body = enc.finish();
            let n = body.len();
            assert_eq!(&body[n - 4..], CDR_CHUNK_MAGIC);
            assert_eq!(CdrProtocol.extract_chunk(&body), Some((9, true)));
            assert_eq!(CdrProtocol.extract_token(&body), Some((5, 6)));
            assert_eq!(CdrProtocol.extract_context(&body), Some((42, 7)));
        }
    }

    /// A hand-typed telnet line carries a chunk suffix — the README's
    /// manual streaming walkthrough relies on this.
    #[test]
    fn text_chunk_is_hand_typable() {
        let line = b"7 \"@tcp:h:1#1#IDL:X:1.0\" \"put\" \"hello \" \"~chunk\" 0 0";
        assert_eq!(TextProtocol.extract_chunk(line), Some((0, false)));
        let with_tok = b"7 \"put\" \"bytes\" \"~tok\" 12345 1 \"~chunk\" 2 1";
        assert_eq!(TextProtocol.extract_chunk(with_tok), Some((2, true)));
        assert_eq!(TextProtocol.extract_token(with_tok), Some((12345, 1)));
    }

    /// Malformed chunk tails never parse — and never confuse the other
    /// tail extractors either.
    #[test]
    fn chunk_rejects_lookalikes() {
        // Trailing junk, bad last-flag, missing fields.
        assert_eq!(TextProtocol.extract_chunk(b"1 \"~chunk\" 2 0 9"), None);
        assert_eq!(TextProtocol.extract_chunk(b"1 \"~chunk\" 2 5"), None);
        assert_eq!(TextProtocol.extract_chunk(b"1 \"~chunk\" 2"), None);
        assert_eq!(TextProtocol.extract_chunk(b"1 \"a\\\"~chunk\" 2 0"), None);
        assert_eq!(TextProtocol.extract_chunk(b"1 \"~chunk\" x 1"), None);
        // A malformed chunk tail does not hide a genuine token beneath it,
        // but it is not stripped either (junk stays junk).
        assert_eq!(TextProtocol.extract_token(b"1 \"~tok\" 2 3 \"~chunk\" 2 5"), None);
        assert_eq!(TextProtocol.extract_token(b"1 \"~tok\" 2 3 \"~chunk\" 2 1"), Some((2, 3)));
        // CDR: a last-flag outside {0,1} is not a chunk section.
        let mut enc = CdrProtocol.encoder();
        enc.put_ulonglong(7);
        enc.put_ulong(2);
        enc.put_ulong(u32::from_le_bytes(*CDR_CHUNK_MAGIC));
        let body = enc.finish();
        assert_eq!(CdrProtocol.extract_chunk(&body), None);
        assert_eq!(CdrProtocol.extract_chunk(b""), None);
    }
}
