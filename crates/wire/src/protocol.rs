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
use crate::text::{find, push_integer, TextDecoder, TextEncoder};
use std::fmt;

/// Scratch space large enough for any shipped protocol's frame header
/// (GIOP-lite uses 12 bytes); see [`Protocol::frame_parts`].
pub const MAX_FRAME_HEADER: usize = 16;

/// Text marker opening the trailing call-context section:
/// `"~ctx" <call-id> <parent-id>`. `~` cannot start any ordinary text
/// token (tokens are quoted strings, chars, numbers, booleans, or braces),
/// so no argument reads as a marker, and a human can type one over telnet.
pub const TEXT_CONTEXT_MARKER: &str = "~ctx";

/// Magic closing the CDR call-context section: `call-id (u64 LE) ·
/// parent-id (u64 LE) · "HCX1"`.
pub const CDR_CONTEXT_MAGIC: &[u8; 4] = b"HCX1";

/// Byte length of the CDR call-context section.
pub const CDR_CONTEXT_LEN: usize = 20;

/// Text marker opening the trailing invocation-token section:
/// `"~tok" <session> <seq>` — retyping the same token over telnet
/// exercises the server's exactly-once replay path.
pub const TEXT_TOKEN_MARKER: &str = "~tok";

/// Magic closing the CDR invocation-token section: `session (u64 LE) ·
/// seq (u64 LE) · pad (u32) · "HTK1"`.
pub const CDR_TOKEN_MAGIC: &[u8; 4] = b"HTK1";

/// Byte length of the CDR invocation-token section. The pad keeps its end
/// 8-aligned, so a context section after it starts unpadded.
pub const CDR_TOKEN_LEN: usize = 24;

/// Text marker opening the trailing **chunk section** of a frame in a
/// chunked stream: `"~chunk" <n> <last>`, `<n>` the zero-based chunk
/// index and `<last>` `0` or `1` — a chunked transfer can be hand-typed.
pub const TEXT_CHUNK_MARKER: &str = "~chunk";

/// Magic closing the CDR chunk section: `index (u64 LE) · last (u32 LE,
/// 0 or 1) · "HCH1"`, written as raw octets — never alignment-padded.
pub const CDR_CHUNK_MAGIC: &[u8; 4] = b"HCH1";

/// Byte length of the CDR chunk section.
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

    /// Reports the body length the frame at the front of `buffered`
    /// declares, as `(header_len, body_len)`, once its header is complete
    /// (`Ok(None)` before that). The length is checked against `limits`
    /// first, so a reader learns it only when it is acceptable, and can
    /// size the body's buffer before the body arrives.
    ///
    /// The default, and the text protocol, return `Ok(None)`: their frames
    /// end at a delimiter, so the length is known only at the end.
    ///
    /// # Errors
    ///
    /// Fails on a corrupt header or a declared length over
    /// `limits.max_frame_bytes` ([`WireError::Bounds`]).
    fn declared_body_len(
        &self,
        buffered: &[u8],
        limits: &DecodeLimits,
    ) -> WireResult<Option<(usize, usize)>> {
        let _ = (buffered, limits);
        Ok(None)
    }

    /// Extracts the next complete message body from a [`FrameBuf`] read
    /// cursor, consuming its bytes, or returns `Ok(None)` when more input
    /// is needed. The body comes back in one pooled buffer. Text lines
    /// are copied out of the cursor once; CDR goes through
    /// [`FrameBuf::take_declared`] with its [`Protocol::declared_body_len`],
    /// so a body over [`RECV_CHUNK`](crate::RECV_CHUNK) is read straight
    /// into its own buffer and not copied at all.
    ///
    /// The default implementation adapts [`Protocol::deframe_limited`]
    /// (third-party protocols keep compiling, with one extra copy); both
    /// shipped protocols override it, with accept/reject behavior
    /// byte-identical to the legacy entry points.
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

    /// Appends one optional **trailing section** carrying the values `a`
    /// and `b` to a message being encoded. Must be called after every
    /// declared field has been put, and in [`Section`] order when a
    /// message carries several. Readers that do not know about a section —
    /// including every older peer — never look past the declared fields,
    /// so sections are backward compatible by construction. Returns
    /// `false` (and encodes nothing) for protocols without section
    /// encodings — the default, so third-party protocols keep compiling.
    fn attach_section(&self, enc: &mut dyn Encoder, section: Section, a: u64, b: u64) -> bool {
        let _ = (enc, section, a, b);
        false
    }

    /// Peels `section` off the end of `body` when a well-formed one ends
    /// it: `(rest, a, b)`, where `rest` is the body without the section.
    /// `None` when the body does not end with that section (or the
    /// protocol has no section encodings — the default). Order and
    /// repetition are the walker's business ([`Protocol::split_tail`]),
    /// not this function's.
    fn peel_section<'b>(&self, body: &'b [u8], section: Section) -> Option<(&'b [u8], u64, u64)> {
        let _ = (body, section);
        None
    }

    /// Reads every trailing section of a received body in one walk from
    /// the end inward. A tail inspection only: the declared fields decode
    /// identically with or without sections, as an older peer sees them.
    fn split_tail(&self, body: &[u8]) -> Tail {
        walk_tail(self, body, Section::Token)
    }

    /// Appends an optional **trailing call-context section** (call id +
    /// parent id) — [`Protocol::attach_section`] with
    /// [`Section::Context`].
    fn encode_context(&self, enc: &mut dyn Encoder, call_id: u64, parent_id: u64) -> bool {
        self.attach_section(enc, Section::Context, call_id, parent_id)
    }

    /// Extracts the trailing call-context section from a received body, if
    /// present, as `(call_id, parent_id)`. `None` when the body carries no
    /// context (or the protocol has no context encoding — the default).
    fn extract_context(&self, body: &[u8]) -> Option<(u64, u64)> {
        walk_tail(self, body, Section::Context).context
    }

    /// Encodes what [`Encoder::put_string`] would for a `len`-byte string
    /// *except the string's bytes*, and returns the position in the
    /// encoded body where they belong; the caller splices them in there
    /// when it writes the frame, so a large string goes to the socket
    /// from its owner without passing through the encoder. Anything
    /// encoded afterwards lands `len` bytes further along the wire than
    /// the encoder knows, so only position-independent sections (the
    /// chunk section) may follow.
    ///
    /// `None` (the default, and text, whose strings are escaped on the
    /// way) means the bytes must go through `put_string`.
    fn put_string_spliced(&self, enc: &mut dyn Encoder, len: usize) -> Option<usize> {
        let _ = (enc, len);
        None
    }

    /// Cuts a finished `body` back to `at`, a position its encoder
    /// reported ([`Encoder::position`]), and appends `v` exactly as that
    /// encoder's [`Encoder::put_ulonglong`] would have there: so a message
    /// whose last field is a count is encoded once and resent with only
    /// the count rewritten, byte-identical to encoding it afresh. Returns
    /// `false` (the default), leaving `body` untouched, when the protocol
    /// cannot; the caller then encodes the message again.
    fn put_ulonglong_at(&self, body: &mut Vec<u8>, at: usize, v: u64) -> bool {
        let _ = (body, at, v);
        false
    }

    /// Appends an optional **trailing invocation-token section** (session
    /// id + per-session sequence number) — [`Protocol::attach_section`]
    /// with [`Section::Token`], the innermost section.
    fn encode_token(&self, enc: &mut dyn Encoder, session: u64, seq: u64) -> bool {
        self.attach_section(enc, Section::Token, session, seq)
    }

    /// Extracts the trailing invocation-token section from a received
    /// body, if present, as `(session, seq)`. `None` when the body carries
    /// no token (or the protocol has no token encoding — the default).
    fn extract_token(&self, body: &[u8]) -> Option<(u64, u64)> {
        walk_tail(self, body, Section::Token).token
    }

    /// Appends an optional **trailing chunk section** (`index`, `last`)
    /// marking this frame as one piece of a chunked stream —
    /// [`Protocol::attach_section`] with [`Section::Chunk`], the outermost
    /// section.
    fn encode_chunk(&self, enc: &mut dyn Encoder, index: u64, last: bool) -> bool {
        self.attach_section(enc, Section::Chunk, index, u64::from(last))
    }

    /// Extracts the trailing chunk section from a received body, if
    /// present, as `(index, last)`. `None` when the body carries no chunk
    /// section (or the protocol has no chunk encoding — the default).
    fn extract_chunk(&self, body: &[u8]) -> Option<(u64, bool)> {
        walk_tail(self, body, Section::Chunk).chunk
    }
}

/// The optional trailing sections a message body may end with, in
/// nesting order: the token innermost, then the call context, the chunk
/// outermost. A body carries each at most once, in this order, so each
/// sits at a fixed position from the end of what lies beneath it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The invocation token: `(session, seq)`.
    Token,
    /// The call context: `(call-id, parent-id)`.
    Context,
    /// The chunk section: `(index, last)`, `last` being 0 or 1.
    Chunk,
}

/// Everything one walk over a body's trailing sections found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tail {
    /// The invocation token `(session, seq)`, if present.
    pub token: Option<(u64, u64)>,
    /// The call context `(call-id, parent-id)`, if present.
    pub context: Option<(u64, u64)>,
    /// The chunk section `(index, last)`, if present.
    pub chunk: Option<(u64, bool)>,
}

/// The section table, one row per [`Section`] in nesting order: how the
/// section is spelled on each shipped protocol — `(section, text marker,
/// CDR magic, CDR length)`.
const SECTIONS: [(Section, &str, &[u8; 4], usize); 3] = [
    (Section::Token, TEXT_TOKEN_MARKER, CDR_TOKEN_MAGIC, CDR_TOKEN_LEN),
    (Section::Context, TEXT_CONTEXT_MARKER, CDR_CONTEXT_MAGIC, CDR_CONTEXT_LEN),
    (Section::Chunk, TEXT_CHUNK_MARKER, CDR_CHUNK_MAGIC, CDR_CHUNK_LEN),
];

/// The one tail walker: peels the table's rows off the end of `body`,
/// outermost first, down to `innermost`. Each row is tried once, so a
/// section repeated or out of its nesting order is never read past.
fn walk_tail<P: Protocol + ?Sized>(p: &P, body: &[u8], innermost: Section) -> Tail {
    let mut tail = Tail::default();
    let mut rest = body;
    for &(section, ..) in SECTIONS[innermost as usize..].iter().rev() {
        if let Some((inner, a, b)) = p.peel_section(rest, section) {
            rest = inner;
            match section {
                Section::Token => tail.token = Some((a, b)),
                Section::Context => tail.context = Some((a, b)),
                Section::Chunk => tail.chunk = Some((a, b == 1)),
            }
        }
    }
    tail
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
        let Some(nl) = find(buf, [b'\n']) else {
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
            // The bytes before the mark were searched by an earlier call.
            let Some(nl) = find(&bytes[buf.searched..], [b'\n']).map(|i| buf.searched + i) else {
                // No terminator yet: the bound is on buffered bytes, as in
                // `deframe_limited`.
                if bytes.len() as u64 > limits.max_frame_bytes {
                    return Err(WireError::Bounds {
                        what: "text frame",
                        len: bytes.len() as u64,
                        max: limits.max_frame_bytes,
                    });
                }
                buf.searched = bytes.len();
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

    fn attach_section(&self, enc: &mut dyn Encoder, section: Section, a: u64, b: u64) -> bool {
        // Three ordinary tokens: the line stays printable, so a telnet user
        // can append ` "~tok" 12345 1` or ` "~ctx" 42 7` to a hand-typed
        // request, or end each line of a chunked transfer with
        // ` "~chunk" <n> 0` and the final one with ` "~chunk" <n> 1`.
        enc.put_string(SECTIONS[section as usize].1);
        enc.put_ulonglong(a);
        enc.put_ulonglong(b);
        true
    }

    fn peel_section<'b>(&self, body: &'b [u8], section: Section) -> Option<(&'b [u8], u64, u64)> {
        let (rest, a, b) = split_text_tail(body, SECTIONS[section as usize].1)?;
        // The chunk's `last` is spelled exactly `0` or `1`.
        let b = match b {
            "0" => 0,
            "1" => 1,
            _ if section == Section::Chunk => return None,
            _ => b.parse().ok()?,
        };
        Some((rest, a, b))
    }

    fn put_ulonglong_at(&self, body: &mut Vec<u8>, at: usize, v: u64) -> bool {
        if at > body.len() {
            return false;
        }
        body.truncate(at);
        // The separator the encoder writes before every token but the first.
        if at > 0 {
            body.push(b' ');
        }
        push_integer(body, v.into());
        true
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
        // The default limits are the protocol's own sanity bound.
        self.deframe_limited(buf, &DecodeLimits::default())
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
        let Some((header, len)) = self.declared_body_len(buf, limits)? else { return Ok(None) };
        if buf.len() < header + len {
            return Ok(None);
        }
        let body = buf[header..header + len].to_vec();
        buf.drain(..header + len);
        Ok(Some(body))
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

    fn declared_body_len(
        &self,
        buffered: &[u8],
        limits: &DecodeLimits,
    ) -> WireResult<Option<(usize, usize)>> {
        if buffered.len() < GIOP_HEADER_LEN {
            return Ok(None);
        }
        if &buffered[..4] != GIOP_MAGIC {
            return Err(WireError::Malformed {
                what: "GIOP header",
                detail: format!("bad magic {:?}", &buffered[..4]),
            });
        }
        if buffered[4] != 1 {
            return Err(WireError::Malformed {
                what: "GIOP header",
                detail: format!("unsupported major version {}", buffered[4]),
            });
        }
        // The declared length is checked against both the policy bound
        // and the protocol sanity bound before anything is sized from it:
        // a 4 GB length prefix costs the attacker 12 bytes and us nothing.
        let len = u32::from_le_bytes(buffered[8..12].try_into().expect("4 bytes"));
        let max = limits.max_frame_bytes.min(u64::from(MAX_BODY));
        if u64::from(len) > max {
            return Err(WireError::Bounds { what: "GIOP body", len: len.into(), max });
        }
        Ok(Some((GIOP_HEADER_LEN, len as usize)))
    }

    fn deframe_pooled(
        &self,
        buf: &mut FrameBuf,
        limits: &DecodeLimits,
    ) -> WireResult<Option<PooledBuf>> {
        buf.take_declared(|buffered| self.declared_body_len(buffered, limits))
    }

    fn peek_decoder<'a>(
        &self,
        body: &'a [u8],
        limits: &DecodeLimits,
    ) -> WireResult<Box<dyn Decoder + 'a>> {
        Ok(Box::new(CdrDecoder::with_limits(body, *limits)))
    }

    fn attach_section(&self, enc: &mut dyn Encoder, section: Section, a: u64, b: u64) -> bool {
        let (_, _, magic, len) = SECTIONS[section as usize];
        if section == Section::Chunk {
            // Raw octets, not aligned primitives: the context section ends
            // 4 mod 8, so an aligned u64 here would pick up padding that
            // depends on what the section follows. Unpadded bytes keep the
            // section at a fixed offset from the end no matter where the
            // body beneath it stopped.
            let flag = (b as u32).to_le_bytes();
            for byte in a.to_le_bytes().into_iter().chain(flag).chain(*magic) {
                enc.put_octet(byte);
            }
        } else {
            // Two aligned u64s, pad words up to the section length, then
            // the u32 magic. The first u64 8-aligns the cursor, so the
            // section is contiguous and occupies exactly the last
            // `cdr_len` bytes, wherever the arguments left the cursor; the
            // token's pad word ends it 8-aligned, so a context section
            // after it needs no padding either.
            enc.put_ulonglong(a);
            enc.put_ulonglong(b);
            for _ in 0..(len - 20) / 4 {
                enc.put_ulong(0);
            }
            enc.put_ulong(u32::from_le_bytes(*magic));
        }
        true
    }

    fn peel_section<'b>(&self, body: &'b [u8], section: Section) -> Option<(&'b [u8], u64, u64)> {
        let (_, _, magic, len) = SECTIONS[section as usize];
        let (rest, tail) = body.split_at(body.len().checked_sub(len)?);
        if !tail.ends_with(magic) {
            return None;
        }
        let a = u64::from_le_bytes(tail[..8].try_into().ok()?);
        let b = if section == Section::Chunk {
            match u32::from_le_bytes(tail[8..12].try_into().ok()?) {
                last @ (0 | 1) => u64::from(last),
                _ => return None,
            }
        } else {
            u64::from_le_bytes(tail[8..16].try_into().ok()?)
        };
        Some((rest, a, b))
    }

    fn put_string_spliced(&self, enc: &mut dyn Encoder, len: usize) -> Option<usize> {
        // `put_string` writes the aligned count (NUL included), the bytes
        // verbatim, then the NUL: everything but the bytes is encoded
        // here, and they belong between the count and the NUL.
        enc.put_ulong(len as u32 + 1);
        let at = enc.position();
        enc.put_octet(0);
        Some(at)
    }

    fn put_ulonglong_at(&self, body: &mut Vec<u8>, at: usize, v: u64) -> bool {
        if at > body.len() {
            return false;
        }
        // The encoder's padding up to 8-alignment, then the value.
        body.truncate(at);
        body.resize(at.next_multiple_of(8), 0);
        body.extend_from_slice(&v.to_le_bytes());
        true
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
    use crate::RECV_CHUNK;

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

    /// A line that arrives in many reads is searched once: after a miss
    /// the mark covers every buffered byte, the next search starts there,
    /// and consuming a line resets it. Line boundaries come out the same
    /// as from a search of the whole buffer.
    #[test]
    fn text_deframe_resumes_from_the_searched_mark() {
        let limits = DecodeLimits::default();
        let mut fb = FrameBuf::new();
        for (n, piece) in [&b"\"a"[..], b"bc\" 1", b"2\r"].into_iter().enumerate() {
            fb.extend_from_slice(piece);
            assert_eq!(TextProtocol.deframe_pooled(&mut fb, &limits).unwrap(), None, "read {n}");
            assert_eq!(fb.searched, fb.len(), "read {n}: the miss marks every buffered byte");
        }
        fb.extend_from_slice(b"\n7\n\"x");
        assert_eq!(TextProtocol.deframe_pooled(&mut fb, &limits).unwrap().unwrap(), b"\"abc\" 12");
        assert_eq!(fb.searched, 0, "consume resets the mark");
        assert_eq!(TextProtocol.deframe_pooled(&mut fb, &limits).unwrap().unwrap(), b"7");
        assert_eq!(TextProtocol.deframe_pooled(&mut fb, &limits).unwrap(), None);
        assert_eq!((fb.bytes(), fb.searched), (&b"\"x"[..], 2));
        fb.consume(1);
        assert_eq!(fb.searched, 0, "consume resets the mark");
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

    /// A body longer than `RECV_CHUNK` lands in a buffer of its own,
    /// however the bytes are dribbled in: the cursor never grows to hold
    /// it, and the frame after it deframes as usual.
    #[test]
    fn cdr_large_body_fills_its_own_buffer() {
        let big: Vec<u8> = (0..RECV_CHUNK * 3 + 7).map(|i| i as u8).collect();
        let mut stream = Vec::new();
        CdrProtocol.frame(&big, &mut stream);
        CdrProtocol.frame(b"tail", &mut stream);
        let limits = DecodeLimits::default();
        for piece in [1, 5, 12, 13, 999, RECV_CHUNK, stream.len()] {
            let mut fb = FrameBuf::new();
            let mut got = Vec::new();
            for bytes in stream.chunks(piece) {
                fb.extend_from_slice(bytes);
                while let Some(body) = CdrProtocol.deframe_pooled(&mut fb, &limits).unwrap() {
                    got.push(body.detach());
                }
                if got.is_empty() && piece < big.len() {
                    assert_eq!(fb.filling_body(), fb.bytes().is_empty(), "piece {piece}");
                }
            }
            assert_eq!(got, [big.clone(), b"tail".to_vec()], "piece {piece}");
            assert!(got[0].capacity() >= big.len());
            if piece <= RECV_CHUNK {
                assert!(fb.capacity() <= 2 * RECV_CHUNK, "piece {piece}: {}", fb.capacity());
            }
            assert!(fb.is_empty());
        }
    }

    /// A transport that cannot bound its reads may run past a large body;
    /// those bytes open the next frame.
    #[test]
    fn surplus_past_a_large_body_opens_the_next_frame() {
        let big = vec![7u8; RECV_CHUNK + 1];
        let mut stream = Vec::new();
        CdrProtocol.frame(&big, &mut stream);
        CdrProtocol.frame(b"next", &mut stream);
        let limits = DecodeLimits::default();
        let mut fb = FrameBuf::new();
        fb.extend_from_slice(&stream[..100]);
        assert_eq!(CdrProtocol.deframe_pooled(&mut fb, &limits).unwrap(), None);
        let (target, lacking) = fb.input();
        assert_eq!(lacking, big.len() - (100 - GIOP_HEADER_LEN));
        target.extend_from_slice(&stream[100..]);
        assert_eq!(CdrProtocol.deframe_pooled(&mut fb, &limits).unwrap().unwrap(), big);
        assert_eq!(CdrProtocol.deframe_pooled(&mut fb, &limits).unwrap().unwrap(), b"next");
        assert!(fb.is_empty());
    }

    /// A declared length over the bound is refused from the header alone:
    /// no body buffer is taken and nothing is consumed.
    #[test]
    fn oversized_declared_length_is_refused_before_a_body_buffer() {
        let limits = DecodeLimits::default().with_max_frame_bytes(RECV_CHUNK as u64 * 4);
        let mut hdr = b"GIOP\x01\x00\x01\x00".to_vec();
        hdr.extend_from_slice(&(RECV_CHUNK as u32 * 4 + 1).to_le_bytes());
        let mut fb = FrameBuf::from_vec(hdr.clone());
        assert!(matches!(
            CdrProtocol.deframe_pooled(&mut fb, &limits),
            Err(WireError::Bounds { what: "GIOP body", .. })
        ));
        assert!(!fb.filling_body());
        assert_eq!(fb.bytes(), hdr);
        assert_eq!(TextProtocol.declared_body_len(b"\"x\"\n", &limits).unwrap(), None);
    }

    /// Splicing a string's bytes in where `put_string_spliced` says they
    /// belong rebuilds exactly what `put_string` encodes, at any
    /// alignment; text declines, since its strings are escaped.
    #[test]
    fn cdr_spliced_string_matches_put_string() {
        for misalign in 0..8 {
            for s in ["", "a", "héllo wörld", "\0nul"] {
                let mut whole = CdrProtocol.encoder();
                let mut spliced = CdrProtocol.encoder();
                for _ in 0..misalign {
                    whole.put_octet(1);
                    spliced.put_octet(1);
                }
                whole.put_string(s);
                let at = CdrProtocol.put_string_spliced(&mut *spliced, s.len()).unwrap();
                let mut body = spliced.finish();
                body.splice(at..at, s.bytes());
                assert_eq!(body, whole.finish(), "{s:?} at {misalign}");
            }
        }
        assert_eq!(TextProtocol.put_string_spliced(&mut *TextProtocol.encoder(), 3), None);
    }

    /// A count rewritten in a finished body reads as the body encoded
    /// with that count, at any alignment and across digit widths.
    #[test]
    fn a_rewritten_ulonglong_matches_encoding_it_afresh() {
        for p in [&TextProtocol as &dyn Protocol, &CdrProtocol] {
            for lead in 0..9 {
                let encode = |v: u64| {
                    let mut enc = p.encoder();
                    for _ in 0..lead {
                        enc.put_octet(7);
                    }
                    let at = enc.position();
                    enc.put_ulonglong(v);
                    (at, enc.finish())
                };
                let (at, mut body) = encode(5);
                for v in [0, 9, 10, 262_144, u64::MAX, 3] {
                    assert!(p.put_ulonglong_at(&mut body, at, v), "{}", p.name());
                    assert_eq!(body, encode(v).1, "{} {lead} {v}", p.name());
                }
                let past = body.len() + 1;
                assert!(!p.put_ulonglong_at(&mut body, past, 1), "{}", p.name());
            }
        }
    }

    /// A string's span covers exactly the text `get_string` returns, and
    /// it fails where `get_string` fails, with the same error; text with
    /// escapes has no span and leaves the string to `get_string`.
    #[test]
    fn string_spans_agree_with_get_string() {
        let limits = DecodeLimits::default().with_max_string_bytes(64);
        for p in [&TextProtocol as &dyn Protocol, &CdrProtocol] {
            for s in ["", "a", "héllo wörld", &"z".repeat(62)] {
                let mut enc = p.encoder();
                enc.put_octet(1);
                enc.put_string(s);
                enc.put_long(9);
                let body = enc.finish();
                let mut dec = p.peek_decoder(&body, &limits).unwrap();
                dec.get_octet().unwrap();
                let span = dec.get_string_span().unwrap().expect("an unescaped string");
                assert_eq!(&body[span], s.as_bytes(), "{}", p.name());
                assert_eq!(dec.get_long().unwrap(), 9, "{}: the cursor moved past it", p.name());
            }
            let mut enc = p.encoder();
            enc.put_string(&"z".repeat(80));
            let body = enc.finish();
            let span = p.peek_decoder(&body, &limits).unwrap().get_string_span();
            let copy = p.peek_decoder(&body, &limits).unwrap().get_string();
            assert!(matches!(span, Err(WireError::Bounds { .. })), "{}", p.name());
            assert_eq!(span.unwrap_err(), copy.unwrap_err(), "{}", p.name());
        }
        let mut enc = TextProtocol.encoder();
        enc.put_string("two\nlines");
        let body = enc.finish();
        let mut dec = TextProtocol.peek_decoder(&body, &limits).unwrap();
        assert_eq!(dec.get_string_span().unwrap(), None);
        assert_eq!(dec.get_string().unwrap(), "two\nlines");
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
