// The benchmark's loopback client: one non-blocking TCP connection speaking
// either wire protocol, plus request encoding and reply decoding. It is
// written against the server's public codec (server/binary_protocol.h) but
// keeps its own buffers so one generator thread can multiplex several
// connections and stamp every reply the moment its bytes arrive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.h"
#include "server/binary_protocol.h"

namespace perfbench {

/// A decoded reply. `dist` is the `d` value or the `p` length; `nodes` the
/// path; `hash`/`count` fingerprint a `b`/`m` reply's distances.
struct Answer {
  bool ok = false;
  Dist dist = ah::kInfDist;
  std::vector<NodeId> nodes;
  std::uint64_t hash = 0;
  std::size_t count = 0;
};

class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();

  /// Blocking connect to 127.0.0.1:port and protocol negotiation (v1: read
  /// the banner; v2: banner, magic, hello frame). The socket is then
  /// switched to non-blocking mode.
  bool Open(std::uint16_t port, bool v2);
  void Close();
  bool v2() const { return v2_; }
  int fd() const { return fd_; }

  /// Appends one request to the send buffer. `backend` empty = server
  /// default; v1 ignores `id` (replies come back in order).
  void QueuePoint(const PointReq& req, std::string_view backend,
                  std::uint64_t id);
  void QueueBulk(const BulkReq& req, std::string_view backend,
                 std::uint64_t id);

  /// Non-blocking send of buffered bytes; false when the peer is gone.
  bool Flush();
  bool HasOutput() const { return out_pos_ < out_.size(); }
  /// Non-blocking receive of everything available; false on EOF/error.
  bool Receive();

  /// Pops the next complete v1 line (without '\n'), valid until the next
  /// Receive().
  bool NextLine(std::string_view* line);
  /// Pops the next complete v2 frame, valid until the next Receive().
  bool NextFrame(ah::server::FrameHeader* header, std::string_view* payload);

 private:
  void QueueLine(std::string_view line);
  void QueueFrame(ah::server::Opcode op, std::uint64_t id,
                  std::string_view backend, std::string_view body);
  void Compact();

  int fd_ = -1;
  bool v2_ = false;
  std::string in_;
  std::size_t in_pos_ = 0;
  std::string out_;
  std::size_t out_pos_ = 0;
};

/// Decodes a reply of the given class. False for ERR replies and anything
/// malformed.
bool DecodeV1(Cls cls, std::string_view line, Answer* out);
bool DecodeV2(Cls cls, const ah::server::FrameHeader& header,
              std::string_view payload, Answer* out);

/// Value of `key=` in a stats line; -1 when absent.
long long StatValue(std::string_view stats, std::string_view key);

}  // namespace perfbench
