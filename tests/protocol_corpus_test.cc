// Seeded mutation corpus over the decoders that read untrusted bytes:
// ParseRequest (v1 lines), DecodeRequest (v2 request frames) and
// ReplyFrameToText (v2 reply frames). 100k inputs are derived from valid
// seeds by token, byte and length edits (wrong counts, over-cap sizes,
// prefixes, junk); every outcome is folded into one 64-bit digest. The
// digest is pinned, so any change to what either protocol accepts, rejects
// or says shows up here. Nothing may throw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/binary_protocol.h"
#include "server/protocol.h"
#include "util/rng.h"

namespace ah::server {
namespace {

// FNV-1a; lengths are folded too, so field boundaries count.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void Word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  void Bytes(std::string_view s) {
    for (const char c : s) Word(static_cast<unsigned char>(c));
    Word(s.size());
  }
  void Fold(const ParseResult& r) {
    Word(r.ok);
    if (!r.ok) {
      Word(static_cast<std::uint64_t>(r.code));
      return Bytes(r.message);
    }
    const Request& q = r.request;
    for (const std::uint64_t v : {static_cast<std::uint64_t>(q.kind),
                                  std::uint64_t{q.s}, std::uint64_t{q.t},
                                  std::uint64_t{q.k}, std::uint64_t{q.weight},
                                  q.pairs.size(), q.sources.size()}) {
      Word(v);
    }
    Bytes(q.backend);
    Bytes(q.path);
    for (const auto& [s, t] : q.pairs) Word((std::uint64_t{s} << 32) | t);
    for (const NodeId v : q.sources) Word(v);
    for (const NodeId v : q.targets) Word(v);
  }
};

// Numbers at and around every cap and integer limit, non-numbers, and
// every verb and prefix.
const char* const kTokens[] = {
    "0", "1", "2", "3", "8", "9", "99", "100", "512", "513", "-1", "+1",
    "007", "1e3", "0x10", "4294967295", "4294967296", "18446744073709551616",
    "x", "@ch", "@", "AH/1", "AH/2", "d", "p", "k", "b", "m", "stats", "inv",
    "use", "upd", "updf", "reload", "q", "/tmp/f"};
const std::uint32_t kWords[] = {
    0, 1, 2, 3, 8, 9, 99, 100, 513, 0x7fffffff, 0x80000000, 0xffffffff};

std::string MutateLine(Rng& rng, std::string_view seed) {
  std::vector<std::string> tokens;
  for (std::size_t i = 0; i <= seed.size();) {
    const std::size_t j = std::min(seed.find(' ', i), seed.size());
    tokens.emplace_back(seed.substr(i, j - i));
    i = j + 1;
  }
  for (int edits = 1 + static_cast<int>(rng.Uniform(3)); edits > 0; --edits) {
    const std::size_t at = rng.Uniform(tokens.size() + 1);
    const auto pos = tokens.begin() + static_cast<std::ptrdiff_t>(at);
    const std::string token = kTokens[rng.Uniform(std::size(kTokens))];
    switch (rng.Uniform(5)) {
      case 0:
        if (at < tokens.size()) *pos = token;
        break;
      case 1:
        tokens.insert(pos, token);
        break;
      case 2:
        if (at < tokens.size()) tokens.erase(pos);
        break;
      case 3:
        tokens.resize(std::min(at, tokens.size()));
        break;
      default:  // one byte of junk inside a token
        if (at < tokens.size() && !pos->empty()) {
          (*pos)[rng.Uniform(pos->size())] = " \t0-9@/xd"[rng.Uniform(9)];
        }
    }
  }
  std::string line;
  for (const std::string& token : tokens) {
    line += (line.empty() ? "" : rng.Chance(0.1) ? "\t " : " ") + token;
  }
  return line;
}

// Word overwrites (counts, ids), byte flips, truncation and extension.
void MutatePayload(Rng& rng, std::string* p) {
  for (int edits = 1 + static_cast<int>(rng.Uniform(3)); edits > 0; --edits) {
    switch (rng.Uniform(4)) {
      case 0:
        if (p->size() >= 4) {
          std::string word;
          PutU32(&word, kWords[rng.Uniform(std::size(kWords))]);
          p->replace(4 * rng.Uniform(p->size() / 4), 4, word);
        }
        break;
      case 1:
        if (!p->empty()) {
          (*p)[rng.Uniform(p->size())] ^=
              static_cast<char>(1 + rng.Uniform(255));
        }
        break;
      case 2:
        p->resize(rng.Uniform(p->size() + 1));
        break;
      default:
        p->append(rng.Uniform(9), static_cast<char>(rng.Uniform(256)));
    }
  }
}

TEST(ProtocolCorpusTest, OutcomesMatchThePinnedDigest) {
  const ParseLimits limit_sets[] = {
      {/*num_nodes=*/100, /*max_batch=*/8, /*max_matrix_locations=*/512,
       /*max_bulk_deltas=*/1 << 20},
      {100, 8, 2, 1 << 20},
      {100, 8, 0, 0},
      {5, 0, 3, 10}};
  const std::string_view lines[] = {
      "d 3 99", "p 0 1", "k 5 3", "b 2 0 1 2 3", "m 2 3 7 8 0 1 2", "stats",
      "inv", "use ch", "upd 1 2 77", "updf /tmp/deltas.bin", "reload", "q",
      "AH/1 @alt d 1 2", "@ch m 1 1 0 5", "@hl b 1 4 4", "AH/1 k 9 1"};
  // The same requests as v2 frames; an OK reply frame of every kind, an
  // error reply and the hello banner.
  std::vector<std::string> requests;
  for (const std::string_view line : lines) {
    const Request q = ParseRequest(line, limit_sets[0]).request;
    requests.push_back(EncodeRequestFrame(OpcodeForKind(q.kind), 1, q.backend,
                                          EncodeRequestBody(q)));
  }
  Reply reply;
  reply.dist = 12345;
  reply.path.length = 9;
  reply.path.nodes = {0, 4, 7};
  reply.nearest = {{5, 2}, {kInfDist, 0}};
  reply.dists = {0, 1, kInfDist, 3};
  reply.num_sources = reply.num_targets = 2;
  reply.text = "v=1 served=3";
  reply.value = 4;
  reply.value2 = 6;
  std::vector<std::string> replies = {EncodeHelloFrame(100, 250)};
  for (int kind = 0; kind <= static_cast<int>(RequestKind::kQuit); ++kind) {
    reply.kind = static_cast<RequestKind>(kind);
    replies.push_back(EncodeReplyFrame(reply, OpcodeForKind(reply.kind), 2));
  }
  reply.ok = false;
  reply.detail = "node id 7 out of range [0, 5)";
  replies.push_back(EncodeReplyFrame(reply, Opcode::kDistance, 3));

  Rng rng(20261017);
  Digest digest;
  std::size_t throws = 0;
  for (int i = 0; i < 100000; ++i) {
    // Two fifths v1 lines, two fifths request frames, a fifth replies.
    const ParseLimits& limits = limit_sets[rng.Uniform(std::size(limit_sets))];
    try {
      if (i % 5 < 2) {
        digest.Fold(ParseRequest(
            MutateLine(rng, lines[rng.Uniform(std::size(lines))]), limits));
        continue;
      }
      const std::vector<std::string>& seeds = i % 5 < 4 ? requests : replies;
      FrameHeader header;
      std::string_view view;
      TryReadFrame(seeds[rng.Uniform(seeds.size())], &header, &view);
      std::string payload(view);
      MutatePayload(rng, &payload);
      switch (rng.Uniform(4)) {
        case 0:
          header.opcode = static_cast<Opcode>(rng.Uniform(16));
          break;
        case 1:
          header.backend_len = static_cast<std::uint8_t>(rng.Uniform(5));
          break;
        case 2:
          header.status = static_cast<std::uint8_t>(rng.Uniform(12));
          break;
      }
      if (i % 5 < 4) {
        digest.Fold(DecodeRequest(header, payload, limits));
      } else {
        digest.Bytes(ReplyFrameToText(header, payload));
      }
    } catch (...) {
      ++throws;
    }
  }
  EXPECT_EQ(throws, 0u);
  EXPECT_EQ(digest.h, 0xfa99d17f07e83118ull) << std::hex << digest.h;
}

}  // namespace
}  // namespace ah::server
