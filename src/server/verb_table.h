// The verb table: one row per RequestKind, the single description of every
// request both wire protocols speak. Requests are parsed (v1), decoded and
// encoded (v2) by walking the rows (verb_table.cc), with one validation
// for both protocols; replies are rendered (FormatReply) and packed and
// unpacked (EncodeReplyFrame, DecodeReply) by the row's reply layout.
// The README's v1 grammar and v2 opcode tables are rendered from the rows
// too (server_test diffs them), so a new verb is one row here plus its
// execution in ServerStack.
//
// Only argument extraction differs by protocol: v1 reads decimal tokens,
// v2 little-endian u32 words. A request whose argument count (v1) or
// payload size (v2) does not fit its row answers "usage: <usage>" (v1) or
// "malformed <noun> payload" (v2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "server/binary_protocol.h"

namespace ah::server {

/// How a request's arguments travel: v1 writes each number as a decimal
/// token, v2 as a little-endian u32.
enum class Args : std::uint8_t {
  kNone,       ///< nothing
  kNodePair,   ///< s t: two node ids
  kNodeK,      ///< s k: a node id and a positive count
  kArcWeight,  ///< u v w: two node ids and a weight in [1, kMaxWeight)
  kPairs,      ///< n, then n (s, t) node pairs; 0 < n <= max_batch
  kLists,      ///< ns nt, then ns sources and nt targets (matrix caps)
  kBackend,    ///< a backend name: v1 token, v2 backend prefix
  kFile,       ///< a server-side path: v1 token, v2 body bytes
};

/// How an OK reply's fields travel: v1 as decimal tokens after its "OK <word>",
/// v2 as the little-endian payload.
enum class Fields : std::uint8_t {
  kNone,       ///< nothing (v2 payload ignored when rendering)
  kDist,       ///< one distance: "unreachable" / u64 max when none
  kPath,       ///< length, m, m nodes; v1 "unreachable" when none
  kNearest,    ///< m, then m (node, distance)
  kDists,      ///< n, then n distances
  kMatrix,     ///< ns, nt, then the row-major cells
  kText,       ///< free text (v2: the payload bytes)
  kValue,      ///< one u64
  kTwoValues,  ///< two u64s
};

struct VerbRow {
  RequestKind kind;
  std::string_view token;       ///< v1 request verb
  std::string_view ok;          ///< v1 OK reply up to its fields
  Opcode opcode;
  std::string_view opcode_name;
  std::string_view noun;  ///< v2 size errors: "malformed <noun> payload"
  Args args;
  Fields reply;
  bool query;  ///< answered by an index: takes @<backend> / a v2 prefix
  // The README tables.
  std::string_view usage;      ///< v1 request (also the usage error)
  std::string_view reply_doc;  ///< v1 OK reply
  std::string_view body_doc;   ///< v2 request body
  std::string_view payload_doc;  ///< v2 OK reply payload
};

inline constexpr VerbRow kVerbs[] = {
    {RequestKind::kDistance, "d", "OK d", Opcode::kDistance, "kDistance",
     "distance", Args::kNodePair, Fields::kDist, true, "d <s> <t>",
     "`OK d <dist>` or `OK d unreachable`", "u32 s, u32 t", "u64 dist"},
    {RequestKind::kPath, "p", "OK p", Opcode::kPath, "kPath", "path",
     Args::kNodePair, Fields::kPath, true, "p <s> <t>",
     "`OK p <len> <m> <n1> ... <nm>` / `OK p unreachable`", "u32 s, u32 t",
     "u64 len, u32 m, m × u32 nodes"},
    {RequestKind::kKNearest, "k", "OK k", Opcode::kKNearest, "kKNearest",
     "k-nearest", Args::kNodeK, Fields::kNearest, true, "k <s> <k>",
     "`OK k <m> <node> <dist> ...`", "u32 s, u32 k",
     "u32 m, m × (u32 node, u64 dist)"},
    {RequestKind::kBatch, "b", "OK b", Opcode::kBatch, "kBatch", "batch",
     Args::kPairs, Fields::kDists, true, "b <n> <s1> <t1> ...",
     "`OK b <n> <d1> ... <dn>`", "u32 n, n × (u32 s, u32 t)",
     "u32 n, n × u64 dists"},
    {RequestKind::kMatrix, "m", "OK m", Opcode::kMatrix, "kMatrix", "matrix",
     Args::kLists, Fields::kMatrix, true,
     "m <ns> <nt> <s1> ... <sns> <t1> ... <tnt>",
     "`OK m <ns> <nt> <d11> <d12> ...` (row-major)",
     "u32 ns, u32 nt, ns × u32, nt × u32", "u32 ns, u32 nt, ns·nt × u64"},
    {RequestKind::kStats, "stats", "OK stats", Opcode::kStats, "kStats",
     "empty-body", Args::kNone, Fields::kText, false, "stats",
     "`OK stats key=value ...`", "empty", "stats text bytes"},
    {RequestKind::kInvalidate, "inv", "OK inv", Opcode::kInvalidate,
     "kInvalidate", "empty-body", Args::kNone, Fields::kNone, false, "inv",
     "`OK inv`", "empty", "empty"},
    {RequestKind::kUse, "use", "OK use", Opcode::kUse, "kUse", "use",
     Args::kBackend, Fields::kText, false, "use <backend>",
     "`OK use <backend>`", "backend prefix only", "backend-name bytes"},
    {RequestKind::kUpdate, "upd", "OK upd", Opcode::kUpdate, "kUpdate",
     "update", Args::kArcWeight, Fields::kValue, false,
     "upd <u> <v> <weight>", "`OK upd <pending>`", "u32 u, u32 v, u32 w",
     "u64 pending"},
    {RequestKind::kUpdateFile, "updf", "OK updf", Opcode::kUpdateFile,
     "kUpdateFile", "update-file", Args::kFile, Fields::kTwoValues, false,
     "updf <file>", "`OK updf <queued> <pending>`", "path bytes",
     "u64 queued, u64 pending"},
    {RequestKind::kReload, "reload", "OK reload", Opcode::kReload, "kReload",
     "empty-body", Args::kNone, Fields::kValue, false, "reload",
     "`OK reload <pending>`", "empty", "u64 pending"},
    {RequestKind::kQuit, "q", "OK bye", Opcode::kQuit, "kQuit", "empty-body",
     Args::kNone, Fields::kNone, false, "q", "`OK bye`", "empty",
     "empty, then close"},
};

/// Row i describes RequestKind i and travels as opcode kDistance + i, so a
/// kind or an opcode finds its row by index.
constexpr bool VerbRowsAreIndexed() {
  for (std::size_t i = 0; i < std::size(kVerbs); ++i) {
    if (static_cast<std::size_t>(kVerbs[i].kind) != i ||
        static_cast<std::size_t>(kVerbs[i].opcode) !=
            static_cast<std::size_t>(Opcode::kDistance) + i) {
      return false;
    }
  }
  return std::size(kVerbs) == static_cast<std::size_t>(RequestKind::kQuit) + 1;
}
static_assert(VerbRowsAreIndexed(),
              "one verb row per RequestKind, in enum and opcode order");

/// The row of `kind`, or nullptr for a value outside the enum.
constexpr const VerbRow* FindVerb(RequestKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kVerbs) ? &kVerbs[i] : nullptr;
}

/// The row a request opcode decodes as; nullptr for kHello (the server's
/// banner, never a request) and unknown opcodes.
constexpr const VerbRow* FindVerb(Opcode opcode) {
  const auto op = static_cast<std::size_t>(opcode);
  const auto first = static_cast<std::size_t>(Opcode::kDistance);
  return op >= first ? FindVerb(static_cast<RequestKind>(op - first))
                     : nullptr;
}

}  // namespace ah::server
