// Binary little-endian serialization primitives with checksumming.
//
// Index files (src/index/index_io.h) are binary because an RR-Graph index
// is orders of magnitude larger than its source network (Table 3): text
// encoding would triple the footprint and dominate load time. The writer
// streams fixed-width little-endian scalars and length-prefixed vectors
// while folding every byte into a running checksum; the reader verifies
// the trailing checksum so that truncated or bit-flipped files are
// rejected instead of silently yielding a corrupt index.
//
// Two checksums exist. Fnv1a (byte-serial FNV-1a) frames the WAL, the
// checkpoint manifest, replication frames and index files of format v2.
// Hash64 (word-at-a-time) is the one digest of index format v3: its
// chunk digests, its file checksum and NetworkFingerprint. CachedDigest
// keeps a Hash64 digest on an immutable shared chunk, so a chunk is
// hashed once in its lifetime however many snapshots save it.
//
// The encoding is independent of host endianness (bytes are assembled
// explicitly, or arrays are byte-swapped on big-endian hosts), so files
// are portable across platforms.

#ifndef PITEX_SRC_UTIL_SERIALIZE_H_
#define PITEX_SRC_UTIL_SERIALIZE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pitex {

/// Incremental FNV-1a (64-bit) hash, used as the file checksum. Not
/// cryptographic; detects truncation and random corruption.
class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  void Update(const void* data, size_t size);
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = kOffsetBasis;
};

/// Word-at-a-time streaming 64-bit hash. The input is read as
/// little-endian 64-bit words (a final partial word is zero-padded and
/// the length folded in), and the digest depends only on the byte
/// sequence, not on how Update calls split it. Each word step is a
/// bijection of the state, so any single-word change alters the digest.
/// Not cryptographic; detects truncation and random corruption.
class Hash64 {
 public:
  void Update(const void* data, size_t size);
  /// Update with the value's 8 little-endian bytes.
  void UpdateU64(uint64_t value);
  uint64_t digest() const;
  /// Bytes folded in so far.
  uint64_t bytes() const { return length_; }

 private:
  static constexpr uint64_t kSeed = 0x243f6a8885a308d3ULL;
  static uint64_t Mix(uint64_t state, uint64_t word) {
    return std::rotl((state ^ word) * 0x9e3779b97f4a7c15ULL, 29);
  }

  uint64_t state_ = kSeed;
  uint64_t pending_ = 0;  // the bytes of an incomplete word, little-endian
  uint64_t length_ = 0;
};

/// A Hash64 digest cached on immutable data that threads share (the
/// chunks of RrSketchPool and InfluenceGraph, the Graph topology):
/// computed on first use, reused after. Not copyable, so data holding
/// one cannot be copied, changed and left with a stale digest.
class CachedDigest {
 public:
  CachedDigest() = default;
  CachedDigest(const CachedDigest&) = delete;
  CachedDigest& operator=(const CachedDigest&) = delete;

  /// The cached digest, else the digest of a fresh Hash64 that
  /// `hash(Hash64*)` fed, cached for later calls; the bytes it hashed are
  /// added to `*bytes_hashed` (when non-null). Racing first calls each
  /// hash and store the same value.
  template <typename HashFn>
  uint64_t Get(HashFn&& hash, uint64_t* bytes_hashed) const {
    if (ready_.load(std::memory_order_acquire)) {
      return value_.load(std::memory_order_relaxed);
    }
    Hash64 h;
    hash(&h);
    if (bytes_hashed != nullptr) *bytes_hashed += h.bytes();
    Set(h.digest());
    return h.digest();
  }
  /// Records a digest computed elsewhere from the same bytes (a loader
  /// that hashed them on the way in).
  void Set(uint64_t digest) const {
    value_.store(digest, std::memory_order_relaxed);
    ready_.store(true, std::memory_order_release);
  }

 private:
  mutable std::atomic<uint64_t> value_{0};
  mutable std::atomic<bool> ready_{false};
};

/// Passes the little-endian encoding of `size` bytes of kWordBytes-wide
/// words at `data` to sink(const void*, size_t): one call with the
/// in-memory bytes on little-endian hosts, byte-swapped blocks elsewhere.
/// Structs whose fields are all kWordBytes wide (no padding) qualify.
template <size_t kWordBytes, typename Sink>
void EmitLittleEndian(const void* data, size_t size, Sink&& sink);

/// Converts `size` bytes of little-endian kWordBytes-wide words, just
/// read into `data`, to host order in place (a no-op on little-endian
/// hosts).
template <size_t kWordBytes>
void FromLittleEndian(void* data, size_t size);

/// The running checksum of a BinaryWriter / BinaryReader.
enum class Checksum : uint8_t { kFnv1a, kHash64 };

/// Streams little-endian binary values to an ostream, checksumming as it
/// goes. All Write* calls fail silently once the underlying stream fails;
/// call ok() (or check the stream) before trusting the output.
class BinaryWriter {
 public:
  /// `out` must outlive the writer.
  explicit BinaryWriter(std::ostream* out,
                        Checksum checksum = Checksum::kFnv1a)
      : out_(out), checksum_(checksum) {}

  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  /// Doubles and floats are encoded via their IEEE-754 bit patterns.
  void WriteF32(float value);
  void WriteF64(double value);
  /// Length-prefixed (u64) byte string.
  void WriteString(std::string_view value);
  /// Raw bytes, no length prefix (caller encodes the count separately).
  void WriteBytes(const void* data, size_t size);
  /// Raw bytes left out of the running checksum: a format that covers
  /// them by a digest of its own folds that digest in instead.
  void WriteUnhashed(const void* data, size_t size);

  /// Length-prefixed vector of fixed-width scalars.
  template <typename T>
  void WriteVector(std::span<const T> values);
  /// WriteVector's element encoding without the length prefix (the
  /// caller writes the count, e.g. for an array stored in pieces).
  /// Elements are encoded into a block buffer and written a block at a
  /// time: the bytes and the checksum equal per-element writes.
  template <typename T>
  void WriteElements(std::span<const T> values);

  /// Appends the running checksum (not itself checksummed). Call exactly
  /// once, last.
  void WriteChecksum();

  /// True while every write so far has succeeded.
  bool ok() const;
  uint64_t digest() const {
    return checksum_ == Checksum::kFnv1a ? fnv_.digest() : hash64_.digest();
  }

 private:
  std::ostream* out_;
  Checksum checksum_;
  Fnv1a fnv_;
  Hash64 hash64_;
};

/// Reads values written by BinaryWriter, re-computing the checksum.
/// Every Read* returns false on stream failure; after a false return the
/// reader is poisoned and all further reads fail.
class BinaryReader {
 public:
  /// `in` must outlive the reader. With `checksum` nullopt the checksum
  /// is undecided (a format whose header names it): every byte read
  /// feeds both until SelectChecksum.
  explicit BinaryReader(std::istream* in,
                        std::optional<Checksum> checksum = Checksum::kFnv1a)
      : in_(in),
        use_fnv_(checksum != Checksum::kHash64),
        use_hash64_(checksum != Checksum::kFnv1a) {}

  /// Settles an undecided checksum; the bytes read so far stay folded in.
  void SelectChecksum(Checksum checksum) {
    use_fnv_ = checksum == Checksum::kFnv1a;
    use_hash64_ = checksum == Checksum::kHash64;
  }

  bool ReadU8(uint8_t* value);
  bool ReadU32(uint32_t* value);
  bool ReadU64(uint64_t* value);
  bool ReadF32(float* value);
  bool ReadF64(double* value);
  bool ReadString(std::string* value);
  bool ReadBytes(void* data, size_t size);
  /// Raw bytes left out of the running checksum (see
  /// BinaryWriter::WriteUnhashed).
  bool ReadUnhashed(void* data, size_t size);

  /// Length-prefixed vector of fixed-width scalars. `max_elements` guards
  /// against allocating pathological sizes from corrupt headers.
  template <typename T>
  bool ReadVector(std::vector<T>* values, uint64_t max_elements);

  /// Reads the trailing checksum and compares with the recomputed digest
  /// (fails while the checksum is undecided).
  bool VerifyChecksum();

  bool ok() const { return !failed_; }
  /// After a failed read: true when the failure was the stream ending
  /// (EOF) rather than a device error -- the signature of a torn write
  /// (an interrupted writer left a valid prefix). Meaningless while
  /// ok() is still true.
  bool at_end_of_stream() const;
  /// The running checksum (the Hash64 one while undecided).
  uint64_t digest() const {
    return use_hash64_ ? hash64_.digest() : fnv_.digest();
  }

 private:
  std::istream* in_;
  bool use_fnv_;
  bool use_hash64_;
  Fnv1a fnv_;
  Hash64 hash64_;
  bool failed_ = false;
};

// Implementation details only below here.

namespace serialize_internal {

template <size_t kWordBytes>
void SwapWords(unsigned char* bytes, size_t size) {
  for (size_t w = 0; w + kWordBytes <= size; w += kWordBytes) {
    for (size_t i = 0; i < kWordBytes / 2; ++i) {
      const unsigned char t = bytes[w + i];
      bytes[w + i] = bytes[w + kWordBytes - 1 - i];
      bytes[w + kWordBytes - 1 - i] = t;
    }
  }
}

}  // namespace serialize_internal

template <size_t kWordBytes, typename Sink>
void EmitLittleEndian(const void* data, size_t size, Sink&& sink) {
  static_assert(kWordBytes == 4 || kWordBytes == 8, "unsupported width");
  if (size == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    sink(data, size);
  } else {
    constexpr size_t kBlockBytes = 4096;  // a multiple of every width
    unsigned char block[kBlockBytes];
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t done = 0; done < size; done += kBlockBytes) {
      const size_t n = size - done < kBlockBytes ? size - done : kBlockBytes;
      std::memcpy(block, bytes + done, n);
      serialize_internal::SwapWords<kWordBytes>(block, n);
      sink(static_cast<const void*>(block), n);
    }
  }
}

template <size_t kWordBytes>
void FromLittleEndian(void* data, size_t size) {
  static_assert(kWordBytes == 4 || kWordBytes == 8, "unsupported width");
  if constexpr (std::endian::native != std::endian::little) {
    serialize_internal::SwapWords<kWordBytes>(
        static_cast<unsigned char*>(data), size);
  }
}

template <typename T>
void BinaryWriter::WriteVector(std::span<const T> values) {
  WriteU64(values.size());
  WriteElements(values);
}

template <typename T>
void BinaryWriter::WriteElements(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>,
                "WriteElements requires trivially copyable elements");
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                "unsupported element width");
  constexpr size_t kBlockBytes = 4096;  // a multiple of every width
  unsigned char block[kBlockBytes];
  size_t used = 0;
  for (const T& v : values) {
    uint64_t bits;
    if constexpr (sizeof(T) == 4 && std::is_floating_point_v<T>) {
      bits = std::bit_cast<uint32_t>(static_cast<float>(v));
    } else if constexpr (sizeof(T) == 8 && std::is_floating_point_v<T>) {
      bits = std::bit_cast<uint64_t>(static_cast<double>(v));
    } else if constexpr (sizeof(T) == 1) {
      bits = static_cast<uint8_t>(v);
    } else if constexpr (sizeof(T) == 4) {
      bits = static_cast<uint32_t>(v);
    } else {
      bits = static_cast<uint64_t>(v);
    }
    for (size_t i = 0; i < sizeof(T); ++i) {
      block[used + i] = static_cast<unsigned char>(bits >> (8 * i));
    }
    used += sizeof(T);
    if (used == kBlockBytes) {
      WriteBytes(block, used);
      used = 0;
    }
  }
  if (used > 0) WriteBytes(block, used);
}

template <typename T>
bool BinaryReader::ReadVector(std::vector<T>* values, uint64_t max_elements) {
  static_assert(std::is_trivially_copyable_v<T>,
                "ReadVector requires trivially copyable elements");
  uint64_t count = 0;
  if (!ReadU64(&count) || count > max_elements) {
    failed_ = true;
    return false;
  }
  // Grow incrementally instead of resize(count): callers pass generous
  // max_elements bounds, so a corrupt length prefix could otherwise
  // drive one pathological upfront allocation before a single payload
  // byte is validated. With push_back, memory stays proportional to
  // bytes actually present -- a truncated stream fails at its first
  // missing element (tests/fuzz/index_io_fuzz.cc exercises this).
  values->clear();
  for (uint64_t i = 0; i < count; ++i) {
    T v;
    bool read_ok;
    if constexpr (sizeof(T) == 1) {
      uint8_t raw;
      read_ok = ReadU8(&raw);
      v = static_cast<T>(raw);
    } else if constexpr (sizeof(T) == 4 && std::is_floating_point_v<T>) {
      float raw;
      read_ok = ReadF32(&raw);
      v = static_cast<T>(raw);
    } else if constexpr (sizeof(T) == 4) {
      uint32_t raw;
      read_ok = ReadU32(&raw);
      v = static_cast<T>(raw);
    } else if constexpr (sizeof(T) == 8 && std::is_floating_point_v<T>) {
      double raw;
      read_ok = ReadF64(&raw);
      v = static_cast<T>(raw);
    } else {
      static_assert(sizeof(T) == 8, "unsupported element width");
      uint64_t raw;
      read_ok = ReadU64(&raw);
      v = static_cast<T>(raw);
    }
    if (!read_ok) return false;
    values->push_back(v);
  }
  return true;
}

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_SERIALIZE_H_
