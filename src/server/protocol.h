// The serving wire protocol, version 1: newline-delimited ASCII requests
// with structured single-line replies — the contract between any front-end
// (TCP, stdin REPL, tests) and the ServerStack that answers it.
//
// A request line is "[AH/1] [@<backend>] <verb> <args...>"; its reply is
// one "OK <word> <fields...>" or "ERR <code> <detail>" line. The verbs,
// their arguments and their reply fields are rows of the verb table
// (server/verb_table.h), which also drives the v2 binary protocol and the
// README's grammar table.
//
// "unreachable" is a successful answer about the graph; ERR codes are
// request or server failures — clients must never conflate the two. Node
// ids are validated strictly: any non-numeric, negative, or out-of-range id
// is rejected with an error naming the offending token instead of being
// silently clamped. Backend names in "@..." / "use" are validated by the
// server against its registry (bad-backend); "upd" / "updf" arcs must exist
// in the base graph (bad-arc). "updf" is atomic: the server validates every
// record in the file and queues either all of them or none (the reply names
// the first bad record).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "routing/path.h"
#include "util/types.h"

namespace ah::server {

/// Protocol version spoken by ParseRequest/Format*. Requests may carry an
/// explicit "AH/<v>" prefix; any v != kProtocolVersion is rejected with
/// ERR unsupported-version so old clients fail loudly, not subtly.
inline constexpr int kProtocolVersion = 1;

enum class RequestKind {
  kDistance,
  kPath,
  kKNearest,
  kBatch,
  kMatrix,  ///< Many-to-many distance matrix.
  kStats,
  kInvalidate,
  kUse,         ///< Switch the server default backend.
  kUpdate,      ///< Queue one edge-weight delta.
  kUpdateFile,  ///< Queue a bulk binary delta file (atomic all-or-nothing).
  kReload,      ///< Trigger the background rebuild + hot swap.
  kQuit,
};

/// Machine-readable failure classes carried in ERR replies.
enum class ErrorCode {
  kBadRequest,          ///< malformed line: unknown verb, wrong arity, junk
  kBadNode,             ///< node id non-numeric, negative, or out of range
  kBadBackend,          ///< backend name not in the server's registry
  kBadArc,              ///< upd names an arc absent from the base graph
  kUnsupportedVersion,  ///< AH/<v> prefix with an unknown version
  kOverload,            ///< load shed: admission queue full
  kTimeout,             ///< request deadline expired before execution
  kTooLarge,            ///< matrix side exceeds the server's location cap
  kInternal,            ///< server-side failure while answering
};

/// Stable wire token for an error code (e.g. "bad-node").
std::string_view ErrorCodeName(ErrorCode code);

/// A parsed request. Only the fields of the parsed kind are meaningful:
/// s/t for distance and path, s/k for k-nearest, pairs for batch,
/// sources/targets for matrix, backend for use (and, from the "@..."
/// prefix, any query kind; empty = server default), s/t/weight for upd,
/// path for updf.
struct Request {
  RequestKind kind = RequestKind::kQuit;
  NodeId s = 0;
  NodeId t = 0;
  std::uint32_t k = 0;
  Weight weight = 0;
  std::string backend;
  std::string path;  ///< Server-side delta file named by updf.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
};

/// Outcome of parsing one request line: either a Request or a structured
/// error ready to format into an ERR reply.
struct ParseResult {
  bool ok = false;
  Request request;
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};

/// Limits the parser enforces (the server wires its config in here).
struct ParseLimits {
  /// Node ids must be < num_nodes; violations are kBadNode.
  std::size_t num_nodes = 0;
  /// Max pairs in one batch request; 0 disables batching entirely.
  std::size_t max_batch = 4096;
  /// Max locations per matrix side (sources or targets); violations are
  /// kTooLarge. 0 disables matrix requests entirely.
  std::size_t max_matrix_locations = 512;
  /// Max delta records accepted from one updf file; over-cap files are
  /// answered kTooLarge (enforced server-side when reading the file, since
  /// the parser only sees the file name). 0 disables the verb.
  std::size_t max_bulk_deltas = 1 << 20;
};

/// Parses one request line. Leading/trailing whitespace is ignored; an
/// empty line is a kBadRequest. Backend-name *existence* is not checked
/// here (the parser has no registry) — the server maps unknown names to
/// kBadBackend. Never throws.
ParseResult ParseRequest(std::string_view line, const ParseLimits& limits);

/// A structured answer, produced once by the ServerStack and rendered per
/// protocol: FormatReply() emits the v1 text line, binary_protocol.h's
/// EncodeReplyFrame() packs the same fields into a v2 frame. Only the
/// fields of the answered kind are meaningful (mirroring Request).
struct Reply {
  bool ok = true;
  RequestKind kind = RequestKind::kQuit;
  /// The front-end should close the session after delivering this reply.
  bool close = false;
  ErrorCode code = ErrorCode::kInternal;  ///< When !ok.
  std::string detail;                     ///< Error detail when !ok.
  Dist dist = kInfDist;                   ///< kDistance.
  PathResult path;                        ///< kPath.
  std::vector<std::pair<Dist, NodeId>> nearest;  ///< kKNearest (dist, node).
  std::vector<Dist> dists;  ///< kBatch values / kMatrix row-major cells.
  std::size_t num_sources = 0;  ///< kMatrix.
  std::size_t num_targets = 0;  ///< kMatrix.
  std::string text;    ///< kStats stats line; kUse backend echo.
  std::uint64_t value = 0;   ///< upd/reload pending; updf queued.
  std::uint64_t value2 = 0;  ///< updf pending-after-queue.
};

/// Renders a Reply as its v1 text line by its verb row; the Format* helpers
/// below build the Reply for one kind and render it the same way.
std::string FormatReply(const Reply& reply);

std::string FormatError(ErrorCode code, std::string_view detail);
std::string FormatDistance(Dist d);
std::string FormatPath(const PathResult& path);
/// `nearest` is (distance, node), sorted ascending by the caller.
std::string FormatKNearest(const std::vector<std::pair<Dist, NodeId>>& nearest);
std::string FormatBatch(const std::vector<Dist>& dists);
/// `cells` is the row-major num_sources × num_targets matrix.
std::string FormatMatrix(std::size_t num_sources, std::size_t num_targets,
                         const std::vector<Dist>& cells);

/// The banner a front-end sends on connect: "AH/1 ready <n> nodes <m> arcs".
std::string Greeting(std::size_t num_nodes, std::size_t num_arcs);

}  // namespace ah::server
