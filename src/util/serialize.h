// Little-endian binary (de)serialization helpers for index persistence.
//
// Format discipline: every top-level artifact writes a 4-byte magic and a
// version byte; vectors are length-prefixed with a 64-bit count; all
// integers are fixed-width little-endian. Readers validate magic/version
// and throw std::runtime_error on any truncation or mismatch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace ah {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
    if (!out_) throw std::runtime_error("BinaryWriter: write failed");
  }

  void Magic(const char tag[4], std::uint8_t version) {
    out_.write(tag, 4);
    Pod(version);
  }

  template <typename T>
  void Vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<std::uint64_t>(values.size());
    if (!values.empty()) {
      out_.write(reinterpret_cast<const char*>(values.data()),
                 static_cast<std::streamsize>(values.size() * sizeof(T)));
      if (!out_) throw std::runtime_error("BinaryWriter: write failed");
    }
  }

 private:
  std::ostream& out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  template <typename T>
  T Pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    in_.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in_) throw std::runtime_error("BinaryReader: truncated input");
    return value;
  }

  /// Reads and validates a magic tag + version; returns the version.
  std::uint8_t Magic(const char tag[4], std::uint8_t max_version) {
    char got[4];
    in_.read(got, 4);
    if (!in_ || std::memcmp(got, tag, 4) != 0) {
      throw std::runtime_error(std::string("BinaryReader: bad magic, want ") +
                               std::string(tag, 4));
    }
    const std::uint8_t version = Pod<std::uint8_t>();
    if (version > max_version) {
      throw std::runtime_error("BinaryReader: unsupported version");
    }
    return version;
  }

  /// Reads a length-prefixed vector. The payload is read in fixed-size
  /// chunks and the vector grows only as bytes arrive, so a forged count
  /// fails as truncated input instead of forcing a huge allocation up front.
  template <typename T>
  std::vector<T> Vector(std::uint64_t max_count = (1ull << 40)) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = Pod<std::uint64_t>();
    if (count > max_count) {
      throw std::runtime_error("BinaryReader: implausible vector size");
    }
    constexpr std::uint64_t kChunk =
        sizeof(T) >= kChunkBytes ? 1 : kChunkBytes / sizeof(T);
    std::vector<T> values;
    for (std::uint64_t done = 0; done < count;) {
      const std::uint64_t take = std::min(kChunk, count - done);
      values.resize(done + take);
      in_.read(reinterpret_cast<char*>(values.data() + done),
               static_cast<std::streamsize>(take * sizeof(T)));
      if (!in_) throw std::runtime_error("BinaryReader: truncated input");
      done += take;
    }
    return values;
  }

 private:
  static constexpr std::uint64_t kChunkBytes = 1 << 20;

  std::istream& in_;
};

}  // namespace ah
