// Binary encoding primitives used by the wire formats.
//
// All multi-byte integers are big-endian (network order), matching the
// fixed-layout INS packet header in Figure 10 of the paper. Strings are
// length-prefixed with a u16.

#ifndef INS_COMMON_BYTES_H_
#define INS_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ins/common/status.h"

namespace ins {

using Bytes = std::vector<uint8_t>;

// Appends encoded values to an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  // u16 length prefix + raw bytes; aborts if s exceeds 65535 bytes.
  void WriteString(std::string_view s);
  void WriteBytes(const uint8_t* data, size_t len);
  void WriteBytes(const Bytes& b) { WriteBytes(b.data(), b.size()); }

  // Overwrites a previously written u16/u32 at `offset` (for back-patching
  // header pointer fields whose values are known only after serialization).
  void PatchU16(size_t offset, uint16_t v);
  void PatchU32(size_t offset, uint32_t v);

  size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes TakeBytes() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Reads encoded values from a borrowed buffer with bounds checking.
// The buffer must outlive the reader.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<std::string> ReadString();
  // Reads exactly `len` raw bytes.
  Result<Bytes> ReadBytes(size_t len);
  // Skips exactly `len` bytes and returns a view of them (no copy).
  Result<std::span<const uint8_t>> ReadSpan(size_t len);

  // Moves the cursor to an absolute offset (for header pointer fields).
  Status SeekTo(size_t offset);

  size_t position() const { return pos_; }
  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  Status CheckAvailable(size_t n) const;

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace ins

#endif  // INS_COMMON_BYTES_H_
