// The serving wire protocol, version 2: length-prefixed binary frames,
// negotiated on the same TCP port as the v1 line protocol. A connection's
// first bytes decide its mode: the 4-byte magic "AHB2" switches it to
// binary frames for the rest of the session; anything else is parsed as
// v1 text. (The server always sends the v1 text banner line first on
// accept — a v2 client reads and discards that one line, sends the magic,
// and then receives a kHello frame.)
//
// Frame layout, both directions, all integers little-endian:
//
//   u32 len          bytes after this field (header remainder + payload)
//   u8  opcode       Opcode below (replies echo the request's opcode)
//   u8  status       requests: 0; replies: 0 = OK, else ErrorCode + 1
//   u8  backend_len  requests: length of the backend-name prefix of the
//                    payload ("@<backend>" equivalent; 0 = server default);
//                    replies: 0
//   u8  reserved     must be 0
//   u64 request_id   chosen by the client, echoed verbatim in the reply —
//                    the pipelining correlator: a client may have many
//                    frames in flight and replies may complete out of order
//   ...payload       backend-name bytes (requests), then the opcode body
//
// Each request opcode's body and OK reply payload are laid out by its row
// of the verb table (server/verb_table.h), the same row the v1 text
// protocol parses and formats by; kHello (server -> client only) carries
// u32 version, u64 nodes, u64 arcs.
//
// Unreachable distances travel as the kInfDist sentinel (u64 max) — the
// binary analogue of v1's "unreachable" token. Error replies (status != 0)
// carry the human-readable detail as the payload. Requests are validated
// by the same code as v1 requests, so both protocols answer through one
// server brain with the same ErrorCode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "server/protocol.h"
#include "util/types.h"

namespace ah::server {

/// Version spoken by this codec (the "2" in the AHB2 magic and the kHello
/// payload).
inline constexpr int kBinaryProtocolVersion = 2;

/// A v2 client's first bytes on the wire.
inline constexpr std::string_view kBinaryMagic = "AHB2";

/// Full header size including the u32 length field.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Minimum legal value of the `len` field (the 12 header bytes after it).
inline constexpr std::uint32_t kFrameLenMin = 12;

enum class Opcode : std::uint8_t {
  kHello = 0x01,
  kDistance = 0x02,
  kPath = 0x03,
  kKNearest = 0x04,
  kBatch = 0x05,
  kMatrix = 0x06,
  kStats = 0x07,
  kInvalidate = 0x08,
  kUse = 0x09,
  kUpdate = 0x0a,
  kUpdateFile = 0x0b,
  kReload = 0x0c,
  kQuit = 0x0d,
};

/// Reply status byte: 0 is success, anything else is ErrorCode + 1.
inline constexpr std::uint8_t kStatusOk = 0;
std::uint8_t StatusFromError(ErrorCode code);
/// False when `status` is kStatusOk or not a known error code.
bool ErrorFromStatus(std::uint8_t status, ErrorCode* out);

// --- Little-endian primitives (shared by server, client, tests) ----------

void PutU32(std::string* out, std::uint32_t v);
void PutU64(std::string* out, std::uint64_t v);
/// Vectorized bulk append of `count` little-endian u64s: one resize, then
/// raw stores — the batch/matrix reply hot path (a 100x100 matrix is 10k
/// cells; per-cell append bookkeeping would dominate the encode).
void PutU64s(std::string* out, const std::uint64_t* values,
             std::size_t count);
std::uint32_t GetU32(const char* p);
std::uint64_t GetU64(const char* p);

// --- Framing --------------------------------------------------------------

struct FrameHeader {
  std::uint32_t len = 0;
  Opcode opcode = Opcode::kHello;
  std::uint8_t status = kStatusOk;
  std::uint8_t backend_len = 0;
  std::uint64_t request_id = 0;
};

/// Reads the 16-byte header from the front of `buf`. False when fewer than
/// kFrameHeaderBytes are buffered (need more data).
bool TryReadHeader(std::string_view buf, FrameHeader* header);

/// Splits one complete frame off the front of `buf`: returns the total
/// frame size (4 + len) and fills header + payload (a view into `buf`), or
/// 0 when the frame is still incomplete. The caller validates `len` bounds
/// (kFrameLenMin and its own size cap) via TryReadHeader first.
std::size_t TryReadFrame(std::string_view buf, FrameHeader* header,
                         std::string_view* payload);

/// Assembles one request frame (client side).
std::string EncodeRequestFrame(Opcode opcode, std::uint64_t request_id,
                               std::string_view backend,
                               std::string_view body);

/// Encodes the opcode body for a parsed Request (everything after the
/// backend-name prefix) — the client-side twin of DecodeRequest. The
/// route_server REPL and benches use this to speak v2 from parsed text.
std::string EncodeRequestBody(const Request& request);

/// The Opcode a request kind travels as (kHello is never a request kind).
Opcode OpcodeForKind(RequestKind kind);

// --- Server-side request decoding ----------------------------------------

/// Decodes one request frame (header + payload split by TryReadFrame) into
/// the same ParseResult the v1 text parser produces, enforcing the same
/// limits and selector rules. Never throws.
ParseResult DecodeRequest(const FrameHeader& header, std::string_view payload,
                          const ParseLimits& limits);

// --- Reply encoding / decoding -------------------------------------------

/// Packs a structured Reply into a v2 frame echoing `opcode`/`request_id`.
/// Errors become status = ErrorCode + 1 with the detail as payload.
std::string EncodeReplyFrame(const Reply& reply, Opcode opcode,
                             std::uint64_t request_id);

/// The server's post-negotiation banner frame (opcode kHello, id 0).
std::string EncodeHelloFrame(std::size_t num_nodes, std::size_t num_arcs);

/// Convenience for front-end-side framing failures (bad length, oversize):
/// an error frame carrying `detail`, echoing whatever opcode/id are known.
std::string EncodeErrorFrame(Opcode opcode, std::uint64_t request_id,
                             ErrorCode code, std::string_view detail);

/// Decodes an OK reply frame's payload into `reply` by its opcode's verb row
/// (the inverse of EncodeReplyFrame). False for an error status, kHello or
/// an unknown opcode, or a payload that does not fit the row exactly.
bool DecodeReply(const FrameHeader& header, std::string_view payload,
                 Reply* reply);

/// Renders a reply frame as the v1 text line the same request would have
/// produced — the cross-protocol equivalence oracle used by --smoke, the
/// REPL's --protocol v2 mode, and fig_serve's checksum cross-verification.
/// OK payloads are decoded by DecodeReply and rendered by FormatReply;
/// malformed ones render as an ERR internal line rather than throwing.
std::string ReplyFrameToText(const FrameHeader& header,
                             std::string_view payload);

}  // namespace ah::server
