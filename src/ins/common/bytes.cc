#include "ins/common/bytes.h"

#include <cassert>
#include <cstring>

namespace ins {

void ByteWriter::WriteU8(uint8_t v) { buf_.push_back(v); }

void ByteWriter::WriteU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::WriteU32(uint32_t v) {
  WriteU16(static_cast<uint16_t>(v >> 16));
  WriteU16(static_cast<uint16_t>(v));
}

void ByteWriter::WriteU64(uint64_t v) {
  WriteU32(static_cast<uint32_t>(v >> 32));
  WriteU32(static_cast<uint32_t>(v));
}

void ByteWriter::WriteString(std::string_view s) {
  assert(s.size() <= 0xffff);
  WriteU16(static_cast<uint16_t>(s.size()));
  WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void ByteWriter::WriteBytes(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void ByteWriter::PatchU16(size_t offset, uint16_t v) {
  assert(offset + 2 <= buf_.size());
  buf_[offset] = static_cast<uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<uint8_t>(v);
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  PatchU16(offset, static_cast<uint16_t>(v >> 16));
  PatchU16(offset + 2, static_cast<uint16_t>(v));
}

Status ByteReader::CheckAvailable(size_t n) const {
  if (pos_ + n > len_) {
    return OutOfRangeError("buffer underrun: need " + std::to_string(n) +
                           " bytes at offset " + std::to_string(pos_) + " of " +
                           std::to_string(len_));
  }
  return Status::Ok();
}

Result<uint8_t> ByteReader::ReadU8() {
  INS_RETURN_IF_ERROR(CheckAvailable(1));
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  INS_RETURN_IF_ERROR(CheckAvailable(2));
  uint16_t v = static_cast<uint16_t>(static_cast<uint16_t>(data_[pos_]) << 8 |
                                     static_cast<uint16_t>(data_[pos_ + 1]));
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  INS_RETURN_IF_ERROR(CheckAvailable(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = v << 8 | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  INS_RETURN_IF_ERROR(CheckAvailable(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = v << 8 | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::ReadString() {
  auto len = ReadU16();
  if (!len.ok()) {
    return len.status();
  }
  INS_RETURN_IF_ERROR(CheckAvailable(*len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), *len);
  pos_ += *len;
  return s;
}

Result<Bytes> ByteReader::ReadBytes(size_t len) {
  INS_RETURN_IF_ERROR(CheckAvailable(len));
  Bytes b(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return b;
}

Result<std::span<const uint8_t>> ByteReader::ReadSpan(size_t len) {
  INS_RETURN_IF_ERROR(CheckAvailable(len));
  std::span<const uint8_t> view(data_ + pos_, len);
  pos_ += len;
  return view;
}

Status ByteReader::SeekTo(size_t offset) {
  if (offset > len_) {
    return OutOfRangeError("seek past end: " + std::to_string(offset) + " > " +
                           std::to_string(len_));
  }
  pos_ = offset;
  return Status::Ok();
}

}  // namespace ins
