#include "server/verb_table.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

namespace ah::server {

namespace {

/// One request argument: a v1 token or a v2 u32 word.
struct Arg {
  bool number = false;  ///< v1: a plain decimal u64; v2: always
  std::uint64_t value = 0;
  std::string_view token;  ///< v1 spelling; empty for v2
};

/// Reads a v1 token strictly: the whole token must be a decimal number. A
/// leading '-' or '+', hex, or trailing junk are not numbers.
Arg TokenArg(std::string_view token) {
  Arg arg;
  arg.token = token;
  if (token.empty() || token[0] < '0' || token[0] > '9') return arg;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), arg.value);
  arg.number = ec == std::errc() && ptr == token.data() + token.size();
  return arg;
}

/// The argument as the client spelled it (v2: in decimal).
std::string Spelled(const Arg& arg) {
  return arg.token.empty() ? std::to_string(arg.value)
                           : std::string(arg.token);
}

/// A request's arguments: the v1 tokens after the verb, or (tokens ==
/// nullptr) the v2 body read as little-endian u32 words.
struct ArgList {
  const std::string_view* tokens;
  std::size_t count;  ///< tokens, or whole words in the body
  std::string_view body;

  bool text() const { return tokens != nullptr; }
  /// Exactly `n` arguments: n tokens, or a body of exactly 4n bytes.
  bool Exactly(std::uint64_t n) const {
    return text() ? count == n : body.size() == 4 * n;
  }
  Arg operator[](std::size_t i) const {
    return text() ? TokenArg(tokens[i])
                  : Arg{true, GetU32(body.data() + 4 * i), {}};
  }
};

ParseResult RequestError(ErrorCode code, std::string message) {
  ParseResult r;
  r.ok = false;
  r.code = code;
  r.message = std::move(message);
  return r;
}

/// The verbs of all rows, or of the query rows, joined by '|'.
std::string JoinTokens(bool queries_only) {
  std::string out;
  for (const VerbRow& row : kVerbs) {
    if (queries_only && !row.query) continue;
    if (!out.empty()) out.push_back('|');
    out.append(row.token);
  }
  return out;
}

ParseResult UnknownVerb(std::string_view verb) {
  return RequestError(ErrorCode::kBadRequest,
                      "unknown request '" + std::string(verb) +
                          "' (expected " + JoinTokens(false) + ")");
}

/// A backend selector (v1 "@<backend>", v2 prefix) on a verb that is not a
/// query: a contradiction, not something to silently ignore.
ParseResult MisplacedBackend(bool text) {
  return RequestError(
      ErrorCode::kBadRequest,
      std::string(text ? "the @<backend> selector" : "the backend prefix") +
          " only applies to " + JoinTokens(true) + " requests");
}

/// Stores `arg` in `out` when it is a node id below num_nodes.
bool ReadNode(const Arg& arg, const ParseLimits& limits, NodeId* out) {
  *out = static_cast<NodeId>(arg.value);
  return arg.number && arg.value < limits.num_nodes;
}

ParseResult BadNode(const Arg& arg, const ParseLimits& limits) {
  return RequestError(
      ErrorCode::kBadNode,
      arg.number ? "node id " + Spelled(arg) + " out of range [0, " +
                       std::to_string(limits.num_nodes) + ")"
                 : "node id '" + std::string(arg.token) +
                       "' is not a non-negative integer");
}

/// The one validation both protocols share: checks and decodes `args` by
/// `row` against `limits`. `backend` is the selector (v1) or prefix (v2),
/// already allowed for this row.
ParseResult DecodeArgs(const VerbRow& row, const ArgList& args,
                       std::string_view backend, const ParseLimits& limits) {
  // The argument count (v1) or payload size (v2) does not fit the row.
  const auto malformed = [&] {
    return RequestError(ErrorCode::kBadRequest,
                        args.text() ? "usage: " + std::string(row.usage)
                                    : "malformed " + std::string(row.noun) +
                                          " payload");
  };
  const auto bad = [](std::string message) {
    return RequestError(ErrorCode::kBadRequest, std::move(message));
  };
  ParseResult result;
  result.ok = true;
  Request& req = result.request;
  req.kind = row.kind;
  req.backend = std::string(backend);

  switch (row.args) {
    case Args::kNone:
      if (args.Exactly(0)) return result;
      return args.text() ? UnknownVerb(row.token) : malformed();

    case Args::kNodePair:
    case Args::kNodeK:
    case Args::kArcWeight: {
      if (!args.Exactly(row.args == Args::kArcWeight ? 3 : 2)) {
        return malformed();
      }
      const Arg s = args[0];
      if (!ReadNode(s, limits, &req.s)) return BadNode(s, limits);
      if (row.args == Args::kNodeK) {
        const Arg k = args[1];
        if (!k.number || k.value == 0) {
          return bad("k must be a positive integer");
        }
        req.k = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            k.value, std::numeric_limits<std::uint32_t>::max()));
        return result;
      }
      const Arg t = args[1];
      if (!ReadNode(t, limits, &req.t)) return BadNode(t, limits);
      if (row.args == Args::kArcWeight) {
        const Arg w = args[2];
        if (!w.number || w.value == 0 || w.value >= kMaxWeight) {
          return bad("weight '" + Spelled(w) +
                     "' must be a positive integer below " +
                     std::to_string(kMaxWeight));
        }
        req.weight = static_cast<Weight>(w.value);
      }
      return result;
    }

    case Args::kPairs: {
      if (args.count < 1) return malformed();
      const Arg n = args[0];
      if (!n.number || n.value == 0) {
        return bad("batch count must be a positive integer");
      }
      const auto of = [&] { return "batch of " + std::to_string(n.value); };
      if (n.value > limits.max_batch) {
        return bad(of() + " exceeds the limit of " +
                   std::to_string(limits.max_batch));
      }
      if (!args.Exactly(1 + 2 * n.value)) {
        if (!args.text()) return malformed();
        return bad(of() + " needs " + std::to_string(2 * n.value) +
                   " node ids, got " + std::to_string(args.count - 1));
      }
      req.pairs.resize(n.value);
      for (std::size_t i = 0; i < 2 * n.value; ++i) {
        const Arg node = args[1 + i];
        auto& [s, t] = req.pairs[i / 2];
        if (!ReadNode(node, limits, i % 2 == 0 ? &s : &t)) {
          return BadNode(node, limits);
        }
      }
      return result;
    }

    case Args::kLists: {
      if (args.count < 2) return malformed();
      const Arg ns = args[0];
      const Arg nt = args[1];
      if (!ns.number || ns.value == 0 || !nt.number || nt.value == 0) {
        return bad("matrix side counts must be positive integers");
      }
      // Caps before arity: a client asking for an over-cap matrix learns
      // the policy limit, not a confusing size complaint.
      if (limits.max_matrix_locations == 0) {
        return RequestError(ErrorCode::kTooLarge,
                            "matrix requests are disabled");
      }
      if (std::max(ns.value, nt.value) > limits.max_matrix_locations) {
        return RequestError(
            ErrorCode::kTooLarge,
            "matrix side of " + std::to_string(std::max(ns.value, nt.value)) +
                " exceeds the limit of " +
                std::to_string(limits.max_matrix_locations) + " locations");
      }
      if (!args.Exactly(2 + ns.value + nt.value)) {
        if (!args.text()) return malformed();
        return bad("matrix of " + std::to_string(ns.value) + "x" +
                   std::to_string(nt.value) + " needs " +
                   std::to_string(ns.value + nt.value) + " node ids, got " +
                   std::to_string(args.count - 2));
      }
      req.sources.resize(ns.value);
      req.targets.resize(nt.value);
      for (std::size_t i = 0; i < ns.value + nt.value; ++i) {
        const Arg node = args[2 + i];
        if (!ReadNode(node, limits,
                      i < ns.value ? &req.sources[i]
                                   : &req.targets[i - ns.value])) {
          return BadNode(node, limits);
        }
      }
      return result;
    }

    case Args::kBackend:  // v1: the argument; v2: the frame's prefix
      if (args.text()) {
        if (!args.Exactly(1)) return malformed();
        req.backend = std::string(args[0].token);
      } else if (backend.empty() || !args.Exactly(0)) {
        return bad(std::string(row.token) +
                   " needs a backend-name prefix and an empty body");
      }
      return result;

    case Args::kFile:
      if (args.text() && !args.Exactly(1)) return malformed();
      if (limits.max_bulk_deltas == 0) {
        return bad("bulk updates are disabled on this server");
      }
      req.path = std::string(args.text() ? args[0].token : args.body);
      if (req.path.empty()) {
        return bad(std::string(row.token) + " needs a file path");
      }
      return result;
  }
  return RequestError(ErrorCode::kInternal, "undecodable verb row");
}

}  // namespace

ParseResult ParseRequest(std::string_view line, const ParseLimits& limits) {
  // Whitespace-separated tokens (space and tab).
  std::vector<std::string_view> tokens;
  for (std::size_t i = 0; i < line.size();) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  std::size_t at = 0;

  // Optional explicit version prefix "AH/<v>".
  if (at < tokens.size() && tokens[at].substr(0, 3) == "AH/") {
    const Arg version = TokenArg(tokens[at].substr(3));
    if (!version.number ||
        version.value != static_cast<std::uint64_t>(kProtocolVersion)) {
      return RequestError(
          ErrorCode::kUnsupportedVersion,
          "this server speaks AH/" + std::to_string(kProtocolVersion));
    }
    ++at;
  }
  // Optional backend selector "@<backend>" (existence checked server-side).
  std::string_view backend;
  if (at < tokens.size() && tokens[at].size() > 1 && tokens[at][0] == '@') {
    backend = tokens[at].substr(1);
    ++at;
  }
  if (at >= tokens.size()) {
    return RequestError(ErrorCode::kBadRequest, "empty request");
  }

  const std::string_view verb = tokens[at++];
  const auto it = std::find_if(
      std::begin(kVerbs), std::end(kVerbs),
      [verb](const VerbRow& row) { return row.token == verb; });
  const VerbRow* row = it == std::end(kVerbs) ? nullptr : &*it;
  if (!backend.empty() && (row == nullptr || !row->query)) {
    return MisplacedBackend(/*text=*/true);
  }
  if (row == nullptr) return UnknownVerb(verb);
  return DecodeArgs(*row, {tokens.data() + at, tokens.size() - at, {}},
                    backend, limits);
}

ParseResult DecodeRequest(const FrameHeader& header, std::string_view payload,
                          const ParseLimits& limits) {
  if (payload.size() < header.backend_len) {
    return RequestError(ErrorCode::kBadRequest,
                        "backend-name prefix longer than the payload");
  }
  const std::string_view backend = payload.substr(0, header.backend_len);
  const std::string_view body = payload.substr(header.backend_len);
  const VerbRow* row = FindVerb(header.opcode);
  // The prefix picks a query's backend and is kUse's argument.
  if (!backend.empty() &&
      (row == nullptr || !(row->query || row->args == Args::kBackend))) {
    return MisplacedBackend(/*text=*/false);
  }
  if (row == nullptr) {
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02x",
                  static_cast<unsigned>(header.opcode));
    return RequestError(ErrorCode::kBadRequest,
                        "unknown opcode 0x" + std::string(hex));
  }
  return DecodeArgs(*row, {nullptr, body.size() / 4, body}, backend, limits);
}

std::string EncodeRequestBody(const Request& request) {
  std::string body;
  const VerbRow* row = FindVerb(request.kind);
  switch (row == nullptr ? Args::kNone : row->args) {
    case Args::kNone:
    case Args::kBackend:  // the backend travels in the frame prefix
      break;
    case Args::kNodePair:
    case Args::kArcWeight:
      PutU32(&body, request.s);
      PutU32(&body, request.t);
      if (row->args == Args::kArcWeight) PutU32(&body, request.weight);
      break;
    case Args::kNodeK:
      PutU32(&body, request.s);
      PutU32(&body, request.k);
      break;
    case Args::kPairs:
      PutU32(&body, static_cast<std::uint32_t>(request.pairs.size()));
      for (const auto& [s, t] : request.pairs) {
        PutU32(&body, s);
        PutU32(&body, t);
      }
      break;
    case Args::kLists:
      PutU32(&body, static_cast<std::uint32_t>(request.sources.size()));
      PutU32(&body, static_cast<std::uint32_t>(request.targets.size()));
      for (const NodeId s : request.sources) PutU32(&body, s);
      for (const NodeId t : request.targets) PutU32(&body, t);
      break;
    case Args::kFile:
      body = request.path;
      break;
  }
  return body;
}

Opcode OpcodeForKind(RequestKind kind) {
  const VerbRow* row = FindVerb(kind);
  return row == nullptr ? Opcode::kQuit : row->opcode;
}

}  // namespace ah::server
