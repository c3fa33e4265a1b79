#include "src/util/serialize.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

namespace pitex {

void Fnv1a::Update(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = state_;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  state_ = h;
}

namespace {

// Assembles `width` little-endian bytes from `value` into `buf`.
void EncodeLe(uint64_t value, size_t width, unsigned char* buf) {
  for (size_t i = 0; i < width; ++i) {
    buf[i] = static_cast<unsigned char>(value >> (8 * i));
  }
}

uint64_t DecodeLe(const unsigned char* buf, size_t width) {
  uint64_t value = 0;
  for (size_t i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(buf[i]) << (8 * i);
  }
  return value;
}

uint64_t LoadLe64(const unsigned char* bytes) {
  if constexpr (std::endian::native == std::endian::little) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    return word;
  }
  return DecodeLe(bytes, 8);
}

// The murmur3 finalizer: every output bit depends on every input bit.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

void Hash64::Update(const void* data, size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const unsigned char*>(data);
  size_t fill = length_ % 8;
  length_ += size;
  if (fill != 0) {
    while (fill < 8 && size > 0) {
      pending_ |= static_cast<uint64_t>(*bytes++) << (8 * fill++);
      --size;
    }
    if (fill < 8) return;
    state_ = Mix(state_, pending_);
    pending_ = 0;
  }
  uint64_t h = state_;
  for (; size >= 8; size -= 8, bytes += 8) h = Mix(h, LoadLe64(bytes));
  state_ = h;
  for (size_t i = 0; i < size; ++i) {
    pending_ |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
}

void Hash64::UpdateU64(uint64_t value) {
  if (length_ % 8 == 0) {
    state_ = Mix(state_, value);
    length_ += 8;
    return;
  }
  unsigned char bytes[8];
  EncodeLe(value, 8, bytes);
  Update(bytes, 8);
}

uint64_t Hash64::digest() const {
  uint64_t h = state_;
  if (length_ % 8 != 0) h = Mix(h, pending_);
  return Avalanche(h ^ length_);
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  if (checksum_ == Checksum::kFnv1a) {
    fnv_.Update(data, size);
  } else {
    hash64_.Update(data, size);
  }
  WriteUnhashed(data, size);
}

void BinaryWriter::WriteUnhashed(const void* data, size_t size) {
  out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
}

void BinaryWriter::WriteU8(uint8_t value) { WriteBytes(&value, 1); }

void BinaryWriter::WriteU32(uint32_t value) {
  unsigned char buf[4];
  EncodeLe(value, 4, buf);
  WriteBytes(buf, 4);
}

void BinaryWriter::WriteU64(uint64_t value) {
  unsigned char buf[8];
  EncodeLe(value, 8, buf);
  WriteBytes(buf, 8);
}

void BinaryWriter::WriteF32(float value) {
  WriteU32(std::bit_cast<uint32_t>(value));
}

void BinaryWriter::WriteF64(double value) {
  WriteU64(std::bit_cast<uint64_t>(value));
}

void BinaryWriter::WriteString(std::string_view value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void BinaryWriter::WriteChecksum() {
  unsigned char buf[8];
  EncodeLe(digest(), 8, buf);
  out_->write(reinterpret_cast<const char*>(buf), 8);
}

bool BinaryWriter::ok() const { return static_cast<bool>(*out_); }

bool BinaryReader::ReadBytes(void* data, size_t size) {
  if (!ReadUnhashed(data, size)) return false;
  if (use_fnv_) fnv_.Update(data, size);
  if (use_hash64_) hash64_.Update(data, size);
  return true;
}

bool BinaryReader::ReadUnhashed(void* data, size_t size) {
  if (failed_) return false;
  in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<size_t>(in_->gcount()) != size) {
    failed_ = true;
    return false;
  }
  return true;
}

bool BinaryReader::at_end_of_stream() const { return in_->eof(); }

bool BinaryReader::ReadU8(uint8_t* value) { return ReadBytes(value, 1); }

bool BinaryReader::ReadU32(uint32_t* value) {
  unsigned char buf[4];
  if (!ReadBytes(buf, 4)) return false;
  *value = static_cast<uint32_t>(DecodeLe(buf, 4));
  return true;
}

bool BinaryReader::ReadU64(uint64_t* value) {
  unsigned char buf[8];
  if (!ReadBytes(buf, 8)) return false;
  *value = DecodeLe(buf, 8);
  return true;
}

bool BinaryReader::ReadF32(float* value) {
  uint32_t bits = 0;
  if (!ReadU32(&bits)) return false;
  *value = std::bit_cast<float>(bits);
  return true;
}

bool BinaryReader::ReadF64(double* value) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  *value = std::bit_cast<double>(bits);
  return true;
}

bool BinaryReader::ReadString(std::string* value) {
  uint64_t size = 0;
  if (!ReadU64(&size)) return false;
  // Strings in index files are short (magic tags, dataset names); a huge
  // length here means the file is corrupt.
  constexpr uint64_t kMaxStringBytes = 1 << 20;
  if (size > kMaxStringBytes) {
    failed_ = true;
    return false;
  }
  value->resize(size);
  return size == 0 || ReadBytes(value->data(), size);
}

bool BinaryReader::VerifyChecksum() {
  if (failed_ || use_fnv_ == use_hash64_) return false;
  // The digest before consuming the trailer.
  const uint64_t expected = use_fnv_ ? fnv_.digest() : hash64_.digest();
  unsigned char buf[8];
  in_->read(reinterpret_cast<char*>(buf), 8);
  if (in_->gcount() != 8) {
    failed_ = true;
    return false;
  }
  if (DecodeLe(buf, 8) != expected) {
    failed_ = true;
    return false;
  }
  return true;
}

}  // namespace pitex
