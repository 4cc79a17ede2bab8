#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>

namespace perfbench {

using ah::server::FrameHeader;
using ah::server::Opcode;

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Conn::Open(std::uint16_t port, bool v2) {
  Close();
  v2_ = v2;
  in_.clear();
  in_pos_ = 0;
  out_.clear();
  out_pos_ = 0;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  // The handshake blocks, each read for at most 5 s.
  const timeval timeout{5, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const auto fill = [this] {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    in_.append(chunk, static_cast<std::size_t>(n));
    return true;
  };
  // Every connection is greeted with the v1 banner line first.
  std::string_view banner;
  while (!NextLine(&banner)) {
    if (!fill()) return false;
  }
  if (v2) {
    out_.assign(ah::server::kBinaryMagic);
    if (!Flush()) return false;
    FrameHeader hello;
    std::string_view payload;
    while (!NextFrame(&hello, &payload)) {
      if (!fill()) return false;
    }
    if (hello.opcode != Opcode::kHello) return false;
  }
  Compact();
  return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

void Conn::QueuePoint(const PointReq& req, std::string_view backend,
                      std::uint64_t id) {
  if (!v2_) {
    std::string& o = out_;
    if (!backend.empty()) {
      o.push_back('@');
      o.append(backend);
      o.push_back(' ');
    }
    o.append(req.cls == Cls::kPath ? "p " : "d ");
    char buf[48];  // two u32 ids (10 digits each) plus separators
    char* end = std::to_chars(buf, buf + 20, req.s).ptr;
    *end = ' ';
    end = std::to_chars(end + 1, buf + 42, req.t).ptr;
    *end = '\n';
    o.append(buf, static_cast<std::size_t>(end + 1 - buf));
    return;
  }
  std::string body;
  ah::server::PutU32(&body, req.s);
  ah::server::PutU32(&body, req.t);
  QueueFrame(req.cls == Cls::kPath ? Opcode::kPath : Opcode::kDistance, id,
             backend, body);
}

void Conn::QueueBulk(const BulkReq& req, std::string_view backend,
                     std::uint64_t id) {
  ah::server::Request r;
  r.kind = req.cls == Cls::kBatch ? ah::server::RequestKind::kBatch
                                  : ah::server::RequestKind::kMatrix;
  r.pairs = req.pairs;
  r.sources = req.sources;
  r.targets = req.targets;
  if (v2_) {
    QueueFrame(ah::server::OpcodeForKind(r.kind), id, backend,
               ah::server::EncodeRequestBody(r));
    return;
  }
  std::string line;
  if (!backend.empty()) line.append("@").append(backend).append(" ");
  if (req.cls == Cls::kBatch) {
    line.append("b ").append(std::to_string(req.pairs.size()));
    for (const Pair& p : req.pairs) {
      line.append(" ").append(std::to_string(p.first));
      line.append(" ").append(std::to_string(p.second));
    }
  } else {
    line.append("m ").append(std::to_string(req.sources.size()));
    line.append(" ").append(std::to_string(req.targets.size()));
    for (const NodeId v : req.sources) line.append(" ").append(std::to_string(v));
    for (const NodeId v : req.targets) line.append(" ").append(std::to_string(v));
  }
  QueueLine(line);
}

void Conn::QueueLine(std::string_view line) {
  out_.append(line);
  out_.push_back('\n');
}

void Conn::QueueFrame(Opcode op, std::uint64_t id, std::string_view backend,
                      std::string_view body) {
  out_.append(ah::server::EncodeRequestFrame(op, id, backend, body));
}

bool Conn::Flush() {
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  out_.clear();
  out_pos_ = 0;
  return true;
}

void Conn::Compact() {
  if (in_pos_ == 0) return;
  in_.erase(0, in_pos_);
  in_pos_ = 0;
}

bool Conn::Receive() {
  Compact();
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Conn::NextLine(std::string_view* line) {
  const std::size_t nl = in_.find('\n', in_pos_);
  if (nl == std::string::npos) return false;
  *line = std::string_view(in_).substr(in_pos_, nl - in_pos_);
  in_pos_ = nl + 1;
  return true;
}

bool Conn::NextFrame(FrameHeader* header, std::string_view* payload) {
  const std::string_view rest = std::string_view(in_).substr(in_pos_);
  const std::size_t total = ah::server::TryReadFrame(rest, header, payload);
  if (total == 0) return false;
  in_pos_ += total;
  return true;
}

namespace {

// Parses a decimal distance or "unreachable" token; advances *pos past it
// and one following space.
bool ParseDist(std::string_view s, std::size_t* pos, Dist* out) {
  if (*pos >= s.size()) return false;
  const std::size_t end = std::min(s.find(' ', *pos), s.size());
  const std::string_view token = s.substr(*pos, end - *pos);
  if (token == "unreachable") {
    *out = ah::kInfDist;
  } else {
    const auto r = std::from_chars(token.data(), token.data() + token.size(), *out);
    if (r.ec != std::errc() || r.ptr != token.data() + token.size()) {
      return false;
    }
  }
  *pos = end + 1;
  return true;
}

bool ParseCount(std::string_view s, std::size_t* pos, std::uint64_t* out) {
  Dist v = 0;
  if (!ParseDist(s, pos, &v) || v == ah::kInfDist) return false;
  *out = v;
  return true;
}

}  // namespace

bool DecodeV1(Cls cls, std::string_view line, Answer* out) {
  out->ok = false;
  static constexpr std::string_view kPrefix[] = {"OK d ", "OK p ", "OK b ",
                                                 "OK m "};
  const std::string_view prefix = kPrefix[static_cast<int>(cls)];
  if (line.substr(0, prefix.size()) != prefix) return false;
  std::size_t pos = prefix.size();
  switch (cls) {
    case Cls::kDist:
      if (!ParseDist(line, &pos, &out->dist)) return false;
      out->count = 1;
      break;
    case Cls::kPath: {
      out->nodes.clear();
      if (!ParseDist(line, &pos, &out->dist)) return false;
      out->count = 1;
      if (out->dist == ah::kInfDist) break;
      std::uint64_t m = 0;
      if (!ParseCount(line, &pos, &m)) return false;
      out->nodes.reserve(m);
      for (std::uint64_t i = 0; i < m; ++i) {
        std::uint64_t v = 0;
        if (!ParseCount(line, &pos, &v)) return false;
        out->nodes.push_back(static_cast<NodeId>(v));
      }
      break;
    }
    case Cls::kBatch:
    case Cls::kMatrix: {
      std::uint64_t n = 0;
      if (!ParseCount(line, &pos, &n)) return false;
      if (cls == Cls::kMatrix) {
        std::uint64_t nt = 0;
        if (!ParseCount(line, &pos, &nt)) return false;
        n *= nt;
      }
      std::uint64_t h = kFnvBasis;
      for (std::uint64_t i = 0; i < n; ++i) {
        Dist d = 0;
        if (!ParseDist(line, &pos, &d)) return false;
        h = FnvMix(h, d);
      }
      out->hash = h;
      out->count = n;
      break;
    }
  }
  out->ok = pos >= line.size();
  return out->ok;
}

bool DecodeV2(Cls cls, const FrameHeader& header, std::string_view payload,
              Answer* out) {
  using ah::server::GetU32;
  using ah::server::GetU64;
  out->ok = false;
  if (header.status != ah::server::kStatusOk) return false;
  const char* p = payload.data();
  const std::size_t size = payload.size();
  switch (cls) {
    case Cls::kDist:
      if (size != 8) return false;
      out->dist = GetU64(p);
      out->count = 1;
      break;
    case Cls::kPath: {
      if (size < 12) return false;
      out->dist = GetU64(p);
      const std::uint32_t m = GetU32(p + 8);
      if (size != 12 + 4 * static_cast<std::size_t>(m)) return false;
      out->nodes.resize(m);
      for (std::uint32_t i = 0; i < m; ++i) out->nodes[i] = GetU32(p + 12 + 4 * i);
      out->count = 1;
      break;
    }
    case Cls::kBatch:
    case Cls::kMatrix: {
      const std::size_t head = cls == Cls::kBatch ? 4 : 8;
      if (size < head) return false;
      std::uint64_t n = GetU32(p);
      if (cls == Cls::kMatrix) n *= GetU32(p + 4);
      if (size != head + 8 * n) return false;
      std::uint64_t h = kFnvBasis;
      for (std::uint64_t i = 0; i < n; ++i) h = FnvMix(h, GetU64(p + head + 8 * i));
      out->hash = h;
      out->count = n;
      break;
    }
  }
  out->ok = true;
  return true;
}

long long StatValue(std::string_view stats, std::string_view key) {
  std::size_t pos = 0;
  while ((pos = stats.find(key, pos)) != std::string_view::npos) {
    const bool starts = pos == 0 || stats[pos - 1] == ' ';
    const std::size_t eq = pos + key.size();
    if (starts && eq < stats.size() && stats[eq] == '=') {
      long long v = -1;
      std::from_chars(stats.data() + eq + 1, stats.data() + stats.size(), v);
      return v;
    }
    pos = eq;
  }
  return -1;
}

}  // namespace perfbench
