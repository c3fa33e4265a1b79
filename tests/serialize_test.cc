// Tests for the binary serialization primitives (src/util/serialize.h):
// round trips, endianness-independent layout, checksum verification, and
// failure poisoning.

#include "src/util/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace pitex {
namespace {

TEST(Fnv1aTest, MatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  Fnv1a empty;
  EXPECT_EQ(empty.digest(), 0xcbf29ce484222325ULL);

  Fnv1a a;
  a.Update("a", 1);
  EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);

  Fnv1a foobar;
  foobar.Update("foobar", 6);
  EXPECT_EQ(foobar.digest(), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, IncrementalEqualsOneShot) {
  Fnv1a one_shot;
  one_shot.Update("hello world", 11);
  Fnv1a incremental;
  incremental.Update("hello", 5);
  incremental.Update(" ", 1);
  incremental.Update("world", 5);
  EXPECT_EQ(one_shot.digest(), incremental.digest());
}

TEST(BinaryWriterTest, ScalarsRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteF32(3.5f);
  writer.WriteF64(-2.718281828459045);
  writer.WriteString("pitex");
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(&stream);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string str;
  ASSERT_TRUE(reader.ReadU8(&u8));
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  ASSERT_TRUE(reader.ReadF32(&f32));
  ASSERT_TRUE(reader.ReadF64(&f64));
  ASSERT_TRUE(reader.ReadString(&str));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(f32, 3.5f);
  EXPECT_EQ(f64, -2.718281828459045);
  EXPECT_EQ(str, "pitex");
}

TEST(BinaryWriterTest, LittleEndianLayout) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(0x01020304);
  const std::string bytes = stream.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(BinaryWriterTest, SpecialFloatsRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteF64(std::numeric_limits<double>::infinity());
  writer.WriteF64(-0.0);
  writer.WriteF64(std::numeric_limits<double>::quiet_NaN());
  writer.WriteF64(std::numeric_limits<double>::denorm_min());

  BinaryReader reader(&stream);
  double value = 0;
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_TRUE(std::isinf(value));
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_EQ(value, 0.0);
  EXPECT_TRUE(std::signbit(value));
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_TRUE(std::isnan(value));
  ASSERT_TRUE(reader.ReadF64(&value));
  EXPECT_EQ(value, std::numeric_limits<double>::denorm_min());
}

TEST(BinaryWriterTest, VectorsRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  const std::vector<uint32_t> ids = {7, 0, 42, 0xffffffffu};
  const std::vector<uint64_t> wide = {1ULL << 60, 3};
  const std::vector<float> probs = {0.25f, 1.0f, 0.0f};
  const std::vector<double> exact = {0.1, 0.2};
  const std::vector<uint8_t> flags = {0, 1, 1};
  writer.WriteVector<uint32_t>(ids);
  writer.WriteVector<uint64_t>(wide);
  writer.WriteVector<float>(probs);
  writer.WriteVector<double>(exact);
  writer.WriteVector<uint8_t>(flags);

  BinaryReader reader(&stream);
  std::vector<uint32_t> ids2;
  std::vector<uint64_t> wide2;
  std::vector<float> probs2;
  std::vector<double> exact2;
  std::vector<uint8_t> flags2;
  ASSERT_TRUE(reader.ReadVector(&ids2, 100));
  ASSERT_TRUE(reader.ReadVector(&wide2, 100));
  ASSERT_TRUE(reader.ReadVector(&probs2, 100));
  ASSERT_TRUE(reader.ReadVector(&exact2, 100));
  ASSERT_TRUE(reader.ReadVector(&flags2, 100));
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(wide2, wide);
  EXPECT_EQ(probs2, probs);
  EXPECT_EQ(exact2, exact);
  EXPECT_EQ(flags2, flags);
}

TEST(BinaryReaderTest, VectorOverMaxElementsRejected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  const std::vector<uint32_t> ids = {1, 2, 3, 4};
  writer.WriteVector<uint32_t>(ids);

  BinaryReader reader(&stream);
  std::vector<uint32_t> out;
  EXPECT_FALSE(reader.ReadVector(&out, 3));
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryReaderTest, EmptyVectorRoundTrips) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteVector<uint32_t>(std::vector<uint32_t>{});
  BinaryReader reader(&stream);
  std::vector<uint32_t> out = {99};
  ASSERT_TRUE(reader.ReadVector(&out, 10));
  EXPECT_TRUE(out.empty());
}

TEST(BinaryReaderTest, EmptyStringRoundTrips) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteString("");
  BinaryReader reader(&stream);
  std::string out = "stale";
  ASSERT_TRUE(reader.ReadString(&out));
  EXPECT_TRUE(out.empty());
}

TEST(BinaryReaderTest, TruncatedStreamFails) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(5);

  BinaryReader reader(&stream);
  uint64_t value = 0;
  EXPECT_FALSE(reader.ReadU64(&value));  // only 4 bytes available
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryReaderTest, FailurePoisonsSubsequentReads) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU8(1);

  BinaryReader reader(&stream);
  uint64_t wide = 0;
  EXPECT_FALSE(reader.ReadU64(&wide));
  uint8_t narrow = 0;
  // A fresh reader could read the byte; a poisoned one must not.
  EXPECT_FALSE(reader.ReadU8(&narrow));
}

TEST(ChecksumTest, ValidFileVerifies) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(123);
  writer.WriteString("payload");
  writer.WriteChecksum();

  BinaryReader reader(&stream);
  uint64_t value = 0;
  std::string str;
  ASSERT_TRUE(reader.ReadU64(&value));
  ASSERT_TRUE(reader.ReadString(&str));
  EXPECT_TRUE(reader.VerifyChecksum());
}

TEST(ChecksumTest, FlippedBitDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(123);
  writer.WriteU64(456);
  writer.WriteChecksum();

  std::string bytes = stream.str();
  bytes[3] ^= 0x10;  // corrupt the payload, not the checksum
  std::stringstream corrupted(bytes);
  BinaryReader reader(&corrupted);
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(reader.ReadU64(&a));
  ASSERT_TRUE(reader.ReadU64(&b));
  EXPECT_FALSE(reader.VerifyChecksum());
}

TEST(ChecksumTest, TruncatedChecksumDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(123);
  writer.WriteChecksum();

  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 2);  // cut into the trailing checksum
  std::stringstream truncated(bytes);
  BinaryReader reader(&truncated);
  uint64_t value = 0;
  ASSERT_TRUE(reader.ReadU64(&value));
  EXPECT_FALSE(reader.VerifyChecksum());
}

TEST(ChecksumTest, WriterAndReaderDigestsAgree) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(77);
  writer.WriteString("abc");
  const uint64_t writer_digest = writer.digest();

  BinaryReader reader(&stream);
  uint32_t value = 0;
  std::string str;
  ASSERT_TRUE(reader.ReadU32(&value));
  ASSERT_TRUE(reader.ReadString(&str));
  EXPECT_EQ(reader.digest(), writer_digest);
}

std::vector<unsigned char> Bytes(size_t n) {
  std::vector<unsigned char> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  return bytes;
}

uint64_t HashOf(const std::vector<unsigned char>& bytes) {
  Hash64 h;
  h.Update(bytes.data(), bytes.size());
  return h.digest();
}

TEST(Hash64Test, DigestDependsOnBytesNotOnUpdateSplits) {
  const auto bytes = Bytes(1000);
  const uint64_t one_shot = HashOf(bytes);
  for (const size_t step : {1u, 3u, 7u, 8u, 13u, 64u}) {
    Hash64 h;
    for (size_t i = 0; i < bytes.size(); i += step) {
      h.Update(bytes.data() + i, std::min(step, bytes.size() - i));
    }
    EXPECT_EQ(h.digest(), one_shot) << "step " << step;
    EXPECT_EQ(h.bytes(), bytes.size());
  }
}

TEST(Hash64Test, UpdateU64EqualsItsLittleEndianBytes) {
  for (const size_t prefix : {0u, 3u, 8u}) {
    const uint64_t value = 0x0123456789abcdefULL;
    const unsigned char le[8] = {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
    const auto head = Bytes(prefix);
    Hash64 a, b;
    a.Update(head.data(), head.size());
    b.Update(head.data(), head.size());
    a.UpdateU64(value);
    b.Update(le, sizeof(le));
    EXPECT_EQ(a.digest(), b.digest()) << "after " << prefix << " bytes";
  }
}

TEST(Hash64Test, EveryBitAndTheLengthMatter) {
  auto bytes = Bytes(257);  // a partial last word
  const uint64_t base = HashOf(bytes);
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(HashOf(bytes), base) << "bit " << bit;
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  // Zero padding of the last word is not the same as zero bytes.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_NE(HashOf(padded), base);
}

TEST(CachedDigestTest, HashesOnce) {
  const auto bytes = Bytes(100);
  int calls = 0;
  const auto hash = [&](Hash64* h) {
    ++calls;
    h->Update(bytes.data(), bytes.size());
  };
  CachedDigest cached;
  uint64_t hashed = 0;
  const uint64_t first = cached.Get(hash, &hashed);
  EXPECT_EQ(first, HashOf(bytes));
  EXPECT_EQ(hashed, bytes.size());
  EXPECT_EQ(cached.Get(hash, &hashed), first);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(hashed, bytes.size());  // a cached digest hashes nothing

  CachedDigest set;
  set.Set(42);
  EXPECT_EQ(set.Get(hash, nullptr), 42u);
  EXPECT_EQ(calls, 1);
}

TEST(EmitLittleEndianTest, MatchesWriteElementsEncoding) {
  const std::vector<uint32_t> words = {1, 0xdeadbeef, 77};
  const std::vector<uint64_t> wide = {0x0123456789abcdefULL, 5};
  std::string emitted;
  const auto sink = [&](const void* data, size_t size) {
    emitted.append(static_cast<const char*>(data), size);
  };
  EmitLittleEndian<4>(words.data(), words.size() * 4, sink);
  EmitLittleEndian<8>(wide.data(), wide.size() * 8, sink);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteElements<uint32_t>(words);
  writer.WriteElements<uint64_t>(wide);
  EXPECT_EQ(emitted, stream.str());

  std::vector<uint32_t> back(words.size());
  std::memcpy(back.data(), emitted.data(), back.size() * 4);
  FromLittleEndian<4>(back.data(), back.size() * 4);
  EXPECT_EQ(back, words);
}

TEST(ChecksumTest, UndecidedReaderFollowsTheSelectedChecksum) {
  for (const Checksum kind : {Checksum::kFnv1a, Checksum::kHash64}) {
    std::stringstream stream;
    BinaryWriter writer(&stream, kind);
    writer.WriteU32(3);
    writer.WriteString("payload");
    writer.WriteChecksum();
    for (const Checksum selected : {Checksum::kFnv1a, Checksum::kHash64}) {
      std::stringstream in(stream.str());
      BinaryReader reader(&in, std::nullopt);
      uint32_t version = 0;
      std::string str;
      ASSERT_TRUE(reader.ReadU32(&version));
      reader.SelectChecksum(selected);
      ASSERT_TRUE(reader.ReadString(&str));
      EXPECT_EQ(reader.VerifyChecksum(), selected == kind);
    }
  }
  // Undecided at the trailer: nothing to verify against.
  std::stringstream stream;
  BinaryWriter writer(&stream, Checksum::kHash64);
  writer.WriteU64(9);
  writer.WriteChecksum();
  BinaryReader reader(&stream, std::nullopt);
  uint64_t value = 0;
  ASSERT_TRUE(reader.ReadU64(&value));
  EXPECT_FALSE(reader.VerifyChecksum());
}

}  // namespace
}  // namespace pitex
