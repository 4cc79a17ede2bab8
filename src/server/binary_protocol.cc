#include "server/binary_protocol.h"

#include <algorithm>

#include "server/verb_table.h"

namespace ah::server {

namespace {

/// A cursor over a payload; reads fail rather than run past its end.
class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : body_(body) {}

  bool U32(std::uint32_t* out) {
    if (Remaining() < 4) return false;
    *out = GetU32(body_.data() + at_);
    at_ += 4;
    return true;
  }
  bool U64(std::uint64_t* out) {
    if (Remaining() < 8) return false;
    *out = GetU64(body_.data() + at_);
    at_ += 8;
    return true;
  }
  std::size_t Remaining() const { return body_.size() - at_; }
  /// True when exactly `count` items of `width` bytes are left. Checked
  /// before a count sizes anything, so a forged count cannot overflow.
  bool Holds(std::uint64_t count, std::size_t width) const {
    return Remaining() % width == 0 && Remaining() / width == count;
  }

 private:
  std::string_view body_;
  std::size_t at_ = 0;
};

}  // namespace

std::uint8_t StatusFromError(ErrorCode code) {
  return static_cast<std::uint8_t>(static_cast<int>(code) + 1);
}

bool ErrorFromStatus(std::uint8_t status, ErrorCode* out) {
  if (status == kStatusOk ||
      status > StatusFromError(ErrorCode::kInternal)) {
    return false;
  }
  *out = static_cast<ErrorCode>(status - 1);
  return true;
}

void PutU32(std::string* out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

void PutU64s(std::string* out, const std::uint64_t* values,
             std::size_t count) {
  const std::size_t at = out->size();
  out->resize(at + 8 * count);
  char* p = &(*out)[at];
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = values[i];
    // Explicit little-endian byte stores; compilers collapse this to one
    // 8-byte store on LE targets, and it stays correct on BE ones.
    p[0] = static_cast<char>(v & 0xff);
    p[1] = static_cast<char>((v >> 8) & 0xff);
    p[2] = static_cast<char>((v >> 16) & 0xff);
    p[3] = static_cast<char>((v >> 24) & 0xff);
    p[4] = static_cast<char>((v >> 32) & 0xff);
    p[5] = static_cast<char>((v >> 40) & 0xff);
    p[6] = static_cast<char>((v >> 48) & 0xff);
    p[7] = static_cast<char>((v >> 56) & 0xff);
    p += 8;
  }
}

std::uint32_t GetU32(const char* p) {
  const auto b = [p](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::uint64_t GetU64(const char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

bool TryReadHeader(std::string_view buf, FrameHeader* header) {
  if (buf.size() < kFrameHeaderBytes) return false;
  header->len = GetU32(buf.data());
  header->opcode = static_cast<Opcode>(static_cast<std::uint8_t>(buf[4]));
  header->status = static_cast<std::uint8_t>(buf[5]);
  header->backend_len = static_cast<std::uint8_t>(buf[6]);
  header->request_id = GetU64(buf.data() + 8);
  return true;
}

std::size_t TryReadFrame(std::string_view buf, FrameHeader* header,
                         std::string_view* payload) {
  if (!TryReadHeader(buf, header) || header->len < kFrameLenMin) return 0;
  const std::size_t total = 4 + static_cast<std::size_t>(header->len);
  if (buf.size() < total) return 0;
  *payload = buf.substr(kFrameHeaderBytes, total - kFrameHeaderBytes);
  return total;
}

namespace {

std::string EncodeFrame(Opcode opcode, std::uint8_t status,
                        std::uint8_t backend_len, std::uint64_t request_id,
                        std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, static_cast<std::uint32_t>(kFrameLenMin + payload.size()));
  out.push_back(static_cast<char>(opcode));
  out.push_back(static_cast<char>(status));
  out.push_back(static_cast<char>(backend_len));
  out.push_back(0);  // reserved
  PutU64(&out, request_id);
  out.append(payload);
  return out;
}

}  // namespace

std::string EncodeRequestFrame(Opcode opcode, std::uint64_t request_id,
                               std::string_view backend,
                               std::string_view body) {
  const std::size_t backend_len = std::min<std::size_t>(backend.size(), 255);
  std::string payload;
  payload.reserve(backend_len + body.size());
  payload.append(backend.substr(0, backend_len));
  payload.append(body);
  return EncodeFrame(opcode, kStatusOk,
                     static_cast<std::uint8_t>(backend_len), request_id,
                     payload);
}

std::string EncodeReplyFrame(const Reply& reply, Opcode opcode,
                             std::uint64_t request_id) {
  if (!reply.ok) {
    return EncodeFrame(opcode, StatusFromError(reply.code), 0, request_id,
                       reply.detail);
  }
  std::string payload;
  const VerbRow* row = FindVerb(reply.kind);
  const Fields fields = row == nullptr ? Fields::kNone : row->reply;
  switch (fields) {
    case Fields::kNone:
      break;
    case Fields::kDist:
      PutU64(&payload, reply.dist);
      break;
    case Fields::kPath:
      PutU64(&payload, reply.path.length);
      PutU32(&payload, static_cast<std::uint32_t>(reply.path.nodes.size()));
      for (const NodeId node : reply.path.nodes) PutU32(&payload, node);
      break;
    case Fields::kNearest:
      PutU32(&payload, static_cast<std::uint32_t>(reply.nearest.size()));
      for (const auto& [dist, node] : reply.nearest) {
        PutU32(&payload, node);
        PutU64(&payload, dist);
      }
      break;
    case Fields::kDists:
    case Fields::kMatrix:
      payload.reserve(8 + 8 * reply.dists.size());
      if (fields == Fields::kDists) {
        PutU32(&payload, static_cast<std::uint32_t>(reply.dists.size()));
      } else {
        PutU32(&payload, static_cast<std::uint32_t>(reply.num_sources));
        PutU32(&payload, static_cast<std::uint32_t>(reply.num_targets));
      }
      PutU64s(&payload, reply.dists.data(), reply.dists.size());
      break;
    case Fields::kText:
      payload = reply.text;
      break;
    case Fields::kValue:
    case Fields::kTwoValues:
      PutU64(&payload, reply.value);
      if (fields == Fields::kTwoValues) PutU64(&payload, reply.value2);
      break;
  }
  return EncodeFrame(opcode, kStatusOk, 0, request_id, payload);
}

std::string EncodeHelloFrame(std::size_t num_nodes, std::size_t num_arcs) {
  std::string payload;
  PutU32(&payload, static_cast<std::uint32_t>(kBinaryProtocolVersion));
  PutU64(&payload, static_cast<std::uint64_t>(num_nodes));
  PutU64(&payload, static_cast<std::uint64_t>(num_arcs));
  return EncodeFrame(Opcode::kHello, kStatusOk, 0, 0, payload);
}

std::string EncodeErrorFrame(Opcode opcode, std::uint64_t request_id,
                             ErrorCode code, std::string_view detail) {
  return EncodeFrame(opcode, StatusFromError(code), 0, request_id, detail);
}

bool DecodeReply(const FrameHeader& header, std::string_view payload,
                 Reply* reply) {
  const VerbRow* row = FindVerb(header.opcode);
  if (header.status != kStatusOk || row == nullptr) return false;
  reply->kind = row->kind;
  const Fields fields = row->reply;
  BodyReader body(payload);
  std::uint32_t n = 0;
  std::uint32_t nt = 1;
  switch (fields) {
    case Fields::kNone:
      return true;
    case Fields::kText:
      reply->text = std::string(payload);
      return true;
    case Fields::kDist:
      return body.U64(&reply->dist) && body.Remaining() == 0;
    case Fields::kPath:
      if (!body.U64(&reply->path.length) || !body.U32(&n) ||
          !body.Holds(n, 4)) {
        return false;
      }
      reply->path.nodes.resize(n);
      for (NodeId& node : reply->path.nodes) body.U32(&node);
      return true;
    case Fields::kNearest:
      if (!body.U32(&n) || !body.Holds(n, 12)) return false;
      reply->nearest.resize(n);
      for (auto& [dist, node] : reply->nearest) {
        body.U32(&node);
        body.U64(&dist);
      }
      return true;
    case Fields::kDists:
    case Fields::kMatrix:
      if (!body.U32(&n) || (fields == Fields::kMatrix && !body.U32(&nt)) ||
          !body.Holds(std::uint64_t{n} * nt, 8)) {
        return false;
      }
      reply->num_sources = n;
      reply->num_targets = nt;
      reply->dists.resize(body.Remaining() / 8);
      for (Dist& d : reply->dists) body.U64(&d);
      return true;
    case Fields::kValue:
    case Fields::kTwoValues:
      return body.U64(&reply->value) &&
             (fields == Fields::kValue || body.U64(&reply->value2)) &&
             body.Remaining() == 0;
  }
  return false;
}

std::string ReplyFrameToText(const FrameHeader& header,
                             std::string_view payload) {
  ErrorCode code = ErrorCode::kInternal;
  if (ErrorFromStatus(header.status, &code)) {
    return FormatError(code, payload);
  }
  if (header.status != kStatusOk) {
    return FormatError(ErrorCode::kInternal, "unknown reply status");
  }
  if (header.opcode == Opcode::kHello && payload.size() == 20) {
    return "AHB/" + std::to_string(GetU32(payload.data())) + " ready " +
           std::to_string(GetU64(payload.data() + 4)) + " nodes " +
           std::to_string(GetU64(payload.data() + 12)) + " arcs";
  }
  Reply reply;
  if (!DecodeReply(header, payload, &reply)) {
    return FormatError(ErrorCode::kInternal, "malformed reply payload");
  }
  return FormatReply(reply);
}

}  // namespace ah::server
