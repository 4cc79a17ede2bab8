#include "server/protocol.h"

#include <charconv>
#include <cstdint>
#include <iterator>

#include "server/verb_table.h"

namespace ah::server {

namespace {

constexpr std::string_view kUnreachableToken = "unreachable";

void AppendNumber(std::string* out, std::uint64_t v) {
  char token[21] = {' '};
  const char* end = std::to_chars(token + 1, std::end(token), v).ptr;
  out->append(token, static_cast<std::size_t>(end - token));
}

/// A distance token; kInfDist prints "unreachable".
void AppendDist(std::string* out, Dist d) {
  if (d == kInfDist) {
    out->push_back(' ');
    out->append(kUnreachableToken);
  } else {
    AppendNumber(out, d);
  }
}

/// The OK line of `reply` by its row's reply layout. A function of its own
/// so that `out` is its only return and is built in place.
std::string OkLine(const VerbRow& row, const Reply& reply) {
  std::string out(row.ok);
  switch (row.reply) {
    case Fields::kNone:
      break;
    case Fields::kDist:
      AppendDist(&out, reply.dist);
      break;
    case Fields::kPath:
      if (!reply.path.Found()) {
        AppendDist(&out, kInfDist);
        break;
      }
      AppendNumber(&out, reply.path.length);
      AppendNumber(&out, reply.path.nodes.size());
      for (const NodeId node : reply.path.nodes) AppendNumber(&out, node);
      break;
    case Fields::kNearest:
      AppendNumber(&out, reply.nearest.size());
      for (const auto& [dist, node] : reply.nearest) {
        AppendNumber(&out, node);
        AppendDist(&out, dist);
      }
      break;
    case Fields::kMatrix:
      AppendNumber(&out, reply.num_sources);
      AppendNumber(&out, reply.num_targets);
      for (const Dist d : reply.dists) AppendDist(&out, d);
      break;
    case Fields::kDists:
      AppendNumber(&out, reply.dists.size());
      for (const Dist d : reply.dists) AppendDist(&out, d);
      break;
    case Fields::kText:
      out.push_back(' ');
      out.append(reply.text);
      break;
    case Fields::kTwoValues:
      AppendNumber(&out, reply.value);
      AppendNumber(&out, reply.value2);
      break;
    case Fields::kValue:
      AppendNumber(&out, reply.value);
      break;
  }
  return out;
}

}  // namespace

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kBadNode: return "bad-node";
    case ErrorCode::kBadBackend: return "bad-backend";
    case ErrorCode::kBadArc: return "bad-arc";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kOverload: return "overload";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kTooLarge: return "too-large";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

std::string FormatReply(const Reply& reply) {
  if (!reply.ok) return FormatError(reply.code, reply.detail);
  const VerbRow* row = FindVerb(reply.kind);
  if (row == nullptr) {
    return FormatError(ErrorCode::kInternal, "unrenderable reply kind");
  }
  return OkLine(*row, reply);
}

std::string FormatError(ErrorCode code, std::string_view detail) {
  std::string out = "ERR ";
  out.append(ErrorCodeName(code));
  if (!detail.empty()) {
    out.push_back(' ');
    out.append(detail);
  }
  return out;
}

std::string FormatDistance(Dist d) {
  Reply reply;
  reply.kind = RequestKind::kDistance;
  reply.dist = d;
  return FormatReply(reply);
}

std::string FormatPath(const PathResult& path) {
  Reply reply;
  reply.kind = RequestKind::kPath;
  reply.path = path;
  return FormatReply(reply);
}

std::string FormatKNearest(
    const std::vector<std::pair<Dist, NodeId>>& nearest) {
  Reply reply;
  reply.kind = RequestKind::kKNearest;
  reply.nearest = nearest;
  return FormatReply(reply);
}

std::string FormatBatch(const std::vector<Dist>& dists) {
  Reply reply;
  reply.kind = RequestKind::kBatch;
  reply.dists = dists;
  return FormatReply(reply);
}

std::string FormatMatrix(std::size_t num_sources, std::size_t num_targets,
                         const std::vector<Dist>& cells) {
  Reply reply;
  reply.kind = RequestKind::kMatrix;
  reply.num_sources = num_sources;
  reply.num_targets = num_targets;
  reply.dists = cells;
  return FormatReply(reply);
}

std::string Greeting(std::size_t num_nodes, std::size_t num_arcs) {
  return "AH/" + std::to_string(kProtocolVersion) + " ready " +
         std::to_string(num_nodes) + " nodes " + std::to_string(num_arcs) +
         " arcs";
}

}  // namespace ah::server
