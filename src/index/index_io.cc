#include "src/index/index_io.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <streambuf>
#include <utility>
#include <vector>

#include "src/util/failpoint.h"
#include "src/util/file_sync.h"
#include "src/util/serialize.h"

namespace pitex {

namespace {

constexpr char kMagic[] = "PITEXIDX";
// v2 stored the RR-Graph payload as one flat CSR-of-CSRs under a
// byte-serial FNV-1a checksum and fingerprint; v3 stores one record per
// sketch chunk, and its checksum and fingerprint are Hash64 folds of
// per-chunk digests. v2 files stay readable. The DelayMat payload is the
// same in both versions; only the checksum and fingerprint differ.
constexpr uint32_t kVersionV2 = 2;
constexpr uint8_t kKindRrGraphs = 1;
constexpr uint8_t kKindDelayMat = 2;

void SetError(IndexIoError* error, IndexIoCode code, const char* message) {
  if (error != nullptr) {
    error->code = code;
    error->message = message;
  }
}

// Plausibility bound for cap_k: the search never selects more tags than
// this, and a header claiming more is corruption, not configuration.
constexpr uint64_t kMaxPlausibleCapK = 1u << 20;

// a * b, saturating at UINT64_MAX (bounds for ReadVector guards built
// from untrusted counts).
uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (b != 0 && a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

// The fingerprint v2 files carry: FNV-1a over the network byte by byte
// (~18 ms on a 285k-edge network), so it is computed only to load one.
uint64_t NetworkFingerprintV2(const SocialNetwork& network) {
  Fnv1a hash;
  auto fold_u64 = [&hash](uint64_t v) { hash.Update(&v, sizeof(v)); };
  fold_u64(network.num_vertices());
  fold_u64(network.num_edges());
  for (EdgeId e = 0; e < network.num_edges(); ++e) {
    fold_u64(network.graph.Tail(e));
    fold_u64(network.graph.Head(e));
    for (const auto& [z, p] : network.influence.EdgeTopics(e)) {
      fold_u64(z);
      hash.Update(&p, sizeof(p));
    }
  }
  fold_u64(network.topics.num_topics());
  fold_u64(network.topics.num_tags());
  for (TopicId z = 0; z < network.topics.num_topics(); ++z) {
    const double prior = network.topics.prior()[z];
    hash.Update(&prior, sizeof(prior));
    for (TagId w = 0; w < network.topics.num_tags(); ++w) {
      const double p = network.topics.TagTopic(w, z);
      if (p > 0.0) {
        fold_u64(w);
        hash.Update(&p, sizeof(p));
      }
    }
  }
  return hash.digest();
}

// Writes the shared header (magic, version, kind, fingerprint, options).
void WriteHeader(BinaryWriter* writer, uint8_t kind, uint64_t fingerprint,
                 const RrIndexOptions& options) {
  writer->WriteString(kMagic);
  writer->WriteU32(kIndexFormatVersion);
  writer->WriteU8(kind);
  writer->WriteU64(fingerprint);
  writer->WriteF64(options.eps);
  writer->WriteF64(options.delta);
  writer->WriteU64(static_cast<uint64_t>(options.cap_k));
  writer->WriteU64(options.seed);
}

// Reads and validates the shared header against `network`; selects the
// reader's checksum by the file's format version, fills the persisted
// `options` fields and reports the version through `*version`. Returns
// false with `*error` set on any mismatch.
bool ReadHeader(BinaryReader* reader, uint8_t expected_kind,
                const SocialNetwork& network, RrIndexOptions* options,
                uint32_t* version, IndexIoError* error) {
  std::string magic;
  uint8_t kind = 0;
  uint64_t fingerprint = 0;
  if (!reader->ReadString(&magic) || magic != kMagic) {
    SetError(error, IndexIoCode::kBadMagic, "not a PITEX index file");
    return false;
  }
  if (!reader->ReadU32(version) ||
      (*version != kVersionV2 && *version != kIndexFormatVersion)) {
    SetError(error, IndexIoCode::kBadVersion,
             "unsupported index file version");
    return false;
  }
  const bool v2 = *version == kVersionV2;
  reader->SelectChecksum(v2 ? Checksum::kFnv1a : Checksum::kHash64);
  if (!reader->ReadU8(&kind) || kind != expected_kind) {
    SetError(error, IndexIoCode::kWrongKind,
             "index file holds a different index kind");
    return false;
  }
  if (!reader->ReadU64(&fingerprint) ||
      fingerprint != (v2 ? NetworkFingerprintV2(network)
                         : NetworkFingerprint(network))) {
    SetError(error, IndexIoCode::kFingerprintMismatch,
             "index was built from a different network");
    return false;
  }
  uint64_t cap_k = 0;
  if (!reader->ReadF64(&options->eps) || !reader->ReadF64(&options->delta) ||
      !reader->ReadU64(&cap_k) || !reader->ReadU64(&options->seed)) {
    SetError(error, IndexIoCode::kTruncated, "truncated index header");
    return false;
  }
  // The options steer sample-size formulas downstream; a NaN eps or an
  // absurd cap_k used to flow through silently and only misbehave at
  // query time. Reject implausible values as header corruption here.
  if (!std::isfinite(options->eps) || options->eps <= 0.0 ||
      !std::isfinite(options->delta) || options->delta <= 0.0) {
    SetError(error, IndexIoCode::kBadOptions,
             "implausible accuracy options: corrupt header");
    return false;
  }
  if (cap_k == 0 || cap_k > kMaxPlausibleCapK) {
    SetError(error, IndexIoCode::kBadOptions,
             "implausible cap_k: corrupt header");
    return false;
  }
  options->cap_k = static_cast<int64_t>(cap_k);
  return true;
}

// The structural guarantees every pooled consumer relies on
// (BuildContaining, LocalIndex, IsReachable), checked per sketch by both
// readers: 1..max_vertices vertices, sorted strictly ascending and in
// range, the root a member, a local CSR from 0 to the edge count that
// never decreases, edge heads inside the sketch and edge ids in range.
bool ValidateSketch(const RRView& rr, uint64_t max_vertices,
                    uint64_t max_edges, IndexIoError* error) {
  const uint64_t n = rr.vertices.size();
  if (n == 0 || n > max_vertices) {
    SetError(error, IndexIoCode::kCorruptPayload, "corrupt sketch vertex count");
    return false;
  }
  for (uint64_t j = 0; j < n; ++j) {
    if (rr.vertices[j] >= max_vertices ||
        (j > 0 && rr.vertices[j] <= rr.vertices[j - 1])) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt sketch vertex array");
      return false;
    }
  }
  if (!std::binary_search(rr.vertices.begin(), rr.vertices.end(), rr.root)) {
    SetError(error, IndexIoCode::kCorruptPayload, "sketch root not a sketch member");
    return false;
  }
  if (rr.offsets.front() != 0 || rr.offsets.back() != rr.edges.size()) {
    SetError(error, IndexIoCode::kCorruptPayload, "inconsistent sketch CSR offsets");
    return false;
  }
  for (uint64_t j = 0; j < n; ++j) {
    if (rr.offsets[j] > rr.offsets[j + 1]) {
      SetError(error, IndexIoCode::kCorruptPayload, "non-monotone sketch CSR offsets");
      return false;
    }
  }
  for (const RRLocalEdge& edge : rr.edges) {
    if (edge.head_local >= n || edge.edge >= max_edges) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt sketch edge data");
      return false;
    }
  }
  return true;
}

// Reads `size` bytes of little-endian kWordBytes-wide words into `data`
// (host order after), folding the bytes as read into `*digest`.
template <size_t kWordBytes>
bool ReadWords(BinaryReader* reader, void* data, size_t size,
               Hash64* digest) {
  if (size == 0) return true;
  if (!reader->ReadUnhashed(data, size)) return false;
  digest->Update(data, size);
  FromLittleEndian<kWordBytes>(data, size);
  return true;
}

// ReadWords into `*values`, `count` elements. The count comes from the
// file, so the vector grows as bytes actually arrive (a step at a time)
// instead of being sized up front: a fabricated count costs only the
// bytes present before the stream ends.
template <size_t kWordBytes, typename T>
bool ReadArray(BinaryReader* reader, uint64_t count, std::vector<T>* values,
               Hash64* digest) {
  constexpr uint64_t kStep = (uint64_t{1} << 20) / sizeof(T);
  values->clear();
  values->reserve(std::min(count, kStep));
  for (uint64_t done = 0; done < count;) {
    const uint64_t n = std::min(count - done, kStep);
    values->resize(done + n);
    if (!ReadWords<kWordBytes>(reader, values->data() + done, n * sizeof(T),
                               digest)) {
      return false;
    }
    done += n;
  }
  return true;
}

// Forwards to `sink` a block at a time. std::filebuf passes every write
// of 1 KiB or more straight to the kernel, so streaming a v3 payload
// array by array would cost one syscall per array (~600 for a
// 96k-sketch index, two thirds of a save's CPU); staged here they cost
// one per block. The block is bounded: the file is never buffered whole.
class BlockBuf : public std::streambuf {
 public:
  explicit BlockBuf(std::streambuf* sink) : sink_(sink), block_(kBlockBytes) {
    setp(block_.data(), block_.data() + block_.size());
  }
  BlockBuf(const BlockBuf&) = delete;
  BlockBuf& operator=(const BlockBuf&) = delete;

 protected:
  int_type overflow(int_type c) override {
    if (!Drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override { return Drain() && sink_->pubsync() == 0 ? 0 : -1; }

 private:
  static constexpr size_t kBlockBytes = size_t{256} << 10;

  bool Drain() {
    const std::streamsize n = pptr() - pbase();
    if (n > 0 && sink_->sputn(pbase(), n) != n) return false;
    setp(block_.data(), block_.data() + block_.size());
    return true;
  }

  std::streambuf* sink_;
  std::vector<char> block_;
};

}  // namespace

uint64_t NetworkFingerprint(const SocialNetwork& network,
                            uint64_t* bytes_hashed) {
  Hash64 hash;
  hash.UpdateU64(network.graph.TopologyDigest(bytes_hashed));
  hash.UpdateU64(network.influence.Digest(bytes_hashed));
  const TopicModel& topics = network.topics;
  hash.UpdateU64(topics.num_topics());
  hash.UpdateU64(topics.num_tags());
  for (TopicId z = 0; z < topics.num_topics(); ++z) {
    hash.UpdateU64(std::bit_cast<uint64_t>(topics.prior()[z]));
    for (TagId w = 0; w < topics.num_tags(); ++w) {
      const double p = topics.TagTopic(w, z);
      if (p > 0.0) {
        hash.UpdateU64(w);
        hash.UpdateU64(std::bit_cast<uint64_t>(p));
      }
    }
  }
  return hash.digest();
}

// Befriended by RrIndex, DelayMatIndex and RrSketchPool: reads/writes
// their private payloads.
class IndexIo {
 public:
  using SketchChunk = RrSketchPool::SketchChunk;

  static bool WriteRr(const RrIndex& index, std::ostream& out,
                      uint64_t* bytes_hashed, IndexIoError* error) {
    if (PITEX_FAILPOINT("index_io/save")) {
      SetError(error, IndexIoCode::kFaultInjected,
               "fault injected: index_io/save");
      return false;
    }
    if (!index.built_) {
      SetError(error, IndexIoCode::kNotBuilt,
               "index not built; call Build() before saving");
      return false;
    }
    if (out.rdbuf() == nullptr) {
      out.setstate(std::ios::badbit);
      SetError(error, IndexIoCode::kWriteFailed, "output stream has no buffer");
      return false;
    }
    const RrSketchPool& pool = index.pool_;
    BlockBuf block(out.rdbuf());
    std::ostream staged(&block);
    BinaryWriter writer(&staged, Checksum::kHash64);
    WriteHeader(&writer, kKindRrGraphs,
                NetworkFingerprint(index.network_, bytes_hashed),
                index.options_);
    writer.WriteU64(index.theta_);
    writer.WriteU64(pool.num_sketches());
    // One record per sketch chunk, streamed straight from the chunk's
    // arrays. The record bytes stay out of the running checksum; the
    // chunk's digest (cached in the chunk, so hashed only for chunks
    // new since they were last saved) is written after them and folded
    // in instead.
    for (const auto& chunk : pool.sketch_chunks_) {
      const uint64_t digest = chunk->Digest(bytes_hashed);
      chunk->Encode([&writer](const void* data, size_t size) {
        writer.WriteUnhashed(data, size);
      });
      writer.WriteU64(digest);
    }
    writer.WriteF64(index.build_seconds_);
    writer.WriteChecksum();
    staged.flush();
    if (!writer.ok() || !out) {
      out.setstate(std::ios::badbit);
      SetError(error, IndexIoCode::kWriteFailed,
               "I/O failure while writing index");
      return false;
    }
    return true;
  }

  // v3 payload record of one sketch chunk holding `count` sketches: read
  // into a fresh chunk while its digest is recomputed from the bytes,
  // checked against the stored digest, then validated sketch by sketch.
  static bool ReadSketchChunkV3(BinaryReader* reader, uint64_t count,
                                uint64_t max_vertices, uint64_t max_edges,
                                std::shared_ptr<const SketchChunk>* out,
                                IndexIoError* error) {
    auto chunk = std::make_shared<SketchChunk>();
    SketchChunk& c = *chunk;
    Hash64 digest;
    uint64_t stored_count = 0;
    if (!ReadWords<8>(reader, &stored_count, 8, &digest) ||
        stored_count != count ||
        !ReadWords<4>(reader, c.roots.data(), count * 4, &digest) ||
        !ReadWords<8>(reader, c.vertex_starts.data() + 1, count * 8,
                      &digest) ||
        !ReadWords<8>(reader, c.edge_starts.data() + 1, count * 8, &digest)) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt sketch chunk header");
      return false;
    }
    c.num_sketches = count;
    for (uint64_t j = 0; j < count; ++j) {
      if (c.vertex_starts[j + 1] < c.vertex_starts[j] ||
          c.vertex_starts[j + 1] - c.vertex_starts[j] > max_vertices ||
          c.edge_starts[j + 1] < c.edge_starts[j] ||
          c.edge_starts[j + 1] - c.edge_starts[j] > max_edges) {
        SetError(error, IndexIoCode::kCorruptPayload, "inconsistent pooled sketch bounds");
        return false;
      }
    }
    const uint64_t num_vertices = c.vertex_starts[count];
    if (!ReadArray<4>(reader, num_vertices, &c.vertices, &digest) ||
        !ReadArray<4>(reader, num_vertices + count, &c.offsets, &digest) ||
        !ReadArray<4>(reader, c.edge_starts[count], &c.edges, &digest)) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled sketch arrays");
      return false;
    }
    uint64_t stored_digest = 0;
    if (!reader->ReadU64(&stored_digest)) {
      SetError(error, IndexIoCode::kTruncated, "truncated sketch chunk digest");
      return false;
    }
    if (stored_digest != digest.digest()) {
      SetError(error, IndexIoCode::kChecksumMismatch,
               "sketch chunk digest mismatch: file corrupted");
      return false;
    }
    c.digest.Set(stored_digest);
    for (uint64_t j = 0; j < count; ++j) {
      const uint64_t vb = c.vertex_starts[j];
      const uint64_t n = c.vertex_starts[j + 1] - vb;
      const uint64_t eb = c.edge_starts[j];
      const RRView rr{c.roots[j],
                      {c.vertices.data() + vb, n},
                      {c.offsets.data() + vb + j, n + 1},
                      {c.edges.data() + eb, c.edge_starts[j + 1] - eb}};
      if (!ValidateSketch(rr, max_vertices, max_edges, error)) return false;
      c.max_vertices = std::max<size_t>(c.max_vertices, n);
    }
    *out = std::move(chunk);
    return true;
  }

  // v2 payload: the pooled arrays, validated wholesale (bounds of the
  // flat layout, then each sketch).
  static bool ReadRrPoolV2(BinaryReader* reader, uint64_t num_sketches,
                           uint64_t max_vertices, uint64_t max_edges,
                           RrSketchPool::Flat* flat, IndexIoError* error) {
    const uint64_t max_total_vertices =
        SaturatingMul(num_sketches, max_vertices);
    if (!reader->ReadVector(&flat->roots, num_sketches) ||
        flat->roots.size() != num_sketches ||
        !reader->ReadVector(&flat->vertex_starts, num_sketches + 1) ||
        flat->vertex_starts.size() != num_sketches + 1 ||
        !reader->ReadVector(&flat->vertices, max_total_vertices) ||
        !reader->ReadVector(&flat->offsets,
                            SaturatingMul(num_sketches, max_vertices + 1)) ||
        !reader->ReadVector(&flat->edge_starts, num_sketches + 1) ||
        flat->edge_starts.size() != num_sketches + 1) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled sketch arrays");
      return false;
    }
    uint64_t num_edges = 0;
    if (!reader->ReadU64(&num_edges) ||
        num_edges > SaturatingMul(num_sketches, max_edges)) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled edge count");
      return false;
    }
    // The num_edges guard saturates (num_sketches * max_edges can hit
    // UINT64_MAX), so never allocate it up front: append edges as they
    // parse and let a truncated or fabricated stream fail on its first
    // missing field.
    flat->edges.clear();
    for (uint64_t j = 0; j < num_edges; ++j) {
      RRLocalEdge edge;
      if (!reader->ReadU32(&edge.head_local) || !reader->ReadU32(&edge.edge) ||
          !reader->ReadF32(&edge.threshold)) {
        SetError(error, IndexIoCode::kCorruptPayload, "corrupt pooled edge data");
        return false;
      }
      flat->edges.push_back(edge);
    }

    if (flat->vertex_starts.front() != 0 ||
        flat->vertex_starts.back() != flat->vertices.size() ||
        flat->edge_starts.front() != 0 ||
        flat->edge_starts.back() != flat->edges.size() ||
        flat->offsets.size() != flat->vertices.size() + num_sketches) {
      SetError(error, IndexIoCode::kCorruptPayload, "inconsistent pooled sketch layout");
      return false;
    }
    for (uint64_t i = 0; i < num_sketches; ++i) {
      const uint64_t vb = flat->vertex_starts[i];
      const uint64_t ve = flat->vertex_starts[i + 1];
      const uint64_t eb = flat->edge_starts[i];
      const uint64_t ee = flat->edge_starts[i + 1];
      if (ve < vb || ve > flat->vertices.size() || ee < eb ||
          ee > flat->edges.size()) {
        SetError(error, IndexIoCode::kCorruptPayload, "inconsistent pooled sketch bounds");
        return false;
      }
      const RRView rr{flat->roots[i],
                      {flat->vertices.data() + vb, ve - vb},
                      {flat->offsets.data() + vb + i, ve - vb + 1},
                      {flat->edges.data() + eb, ee - eb}};
      if (!ValidateSketch(rr, max_vertices, max_edges, error)) return false;
    }
    return true;
  }

  // A read failure at EOF means the file is a valid prefix cut short --
  // a torn write left by an interrupted writer, not bit rot. Upgrade
  // the code so callers can react (fall back to an older checkpoint)
  // without parsing the message. Validation failures with bytes still
  // present (reader.ok() or no EOF) keep their specific code.
  static void UpgradeTornWrite(const BinaryReader& reader,
                               IndexIoError* error) {
    if (error == nullptr || reader.ok() || !reader.at_end_of_stream()) return;
    if (error->code == IndexIoCode::kTruncated ||
        error->code == IndexIoCode::kChecksumMismatch ||
        error->code == IndexIoCode::kCorruptPayload) {
      error->code = IndexIoCode::kTornWrite;
      error->message =
          "file ends mid-payload: torn write (interrupted writer)";
    }
  }

  static std::unique_ptr<RrIndex> ReadRr(const SocialNetwork& network,
                                         std::istream& in,
                                         IndexIoError* error) {
    if (PITEX_FAILPOINT("index_io/load")) {
      SetError(error, IndexIoCode::kFaultInjected,
               "fault injected: index_io/load");
      return nullptr;
    }
    BinaryReader reader(&in, std::nullopt);
    auto index = ReadRrBody(network, &reader, error);
    if (index == nullptr) UpgradeTornWrite(reader, error);
    return index;
  }

  static std::unique_ptr<RrIndex> ReadRrBody(const SocialNetwork& network,
                                             BinaryReader* reader_ptr,
                                             IndexIoError* error) {
    BinaryReader& reader = *reader_ptr;
    RrIndexOptions options;
    uint32_t version = 0;
    if (!ReadHeader(&reader, kKindRrGraphs, network, &options, &version,
                    error)) {
      return nullptr;
    }
    uint64_t theta = 0, num_sketches = 0;
    if (!reader.ReadU64(&theta) || !reader.ReadU64(&num_sketches) ||
        num_sketches > theta) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt index payload header");
      return nullptr;
    }
    options.theta_override = theta;
    auto index = std::unique_ptr<RrIndex>(new RrIndex(network, options));
    const uint64_t max_vertices = network.num_vertices();
    const uint64_t max_edges = network.num_edges();

    RrSketchPool::Flat flat;                                // v2 only
    std::vector<std::shared_ptr<const SketchChunk>> chunks;  // v3 only
    if (version == kVersionV2) {
      if (!ReadRrPoolV2(&reader, num_sketches, max_vertices, max_edges,
                        &flat, error)) {
        return nullptr;
      }
    } else {
      // Chunks are appended as their records parse (no reserve from the
      // untrusted count).
      constexpr uint64_t kPerChunk = RrSketchPool::kSketchesPerChunk;
      for (uint64_t first = 0; first < num_sketches; first += kPerChunk) {
        if (!ReadSketchChunkV3(&reader,
                               std::min(kPerChunk, num_sketches - first),
                               max_vertices, max_edges,
                               &chunks.emplace_back(), error)) {
          return nullptr;
        }
      }
    }
    if (!reader.ReadF64(&index->build_seconds_)) {
      SetError(error, IndexIoCode::kTruncated, "truncated index trailer");
      return nullptr;
    }
    if (!reader.VerifyChecksum()) {
      SetError(error,
               IndexIoCode::kChecksumMismatch,
               "checksum mismatch: file truncated or corrupted");
      return nullptr;
    }
    // The containing index is a permutation of the vertex arrays:
    // cheaper to recompute than to store.
    index->pool_ =
        version == kVersionV2
            ? RrSketchPool::FromFlat(flat, network.num_vertices())
            : RrSketchPool::FromSketchChunks(std::move(chunks), num_sketches,
                                             network.num_vertices());
    index->built_ = true;
    return index;
  }

  static bool WriteDelay(const DelayMatIndex& index, std::ostream& out,
                         IndexIoError* error) {
    if (PITEX_FAILPOINT("index_io/save")) {
      SetError(error, IndexIoCode::kFaultInjected,
               "fault injected: index_io/save");
      return false;
    }
    if (!index.built_) {
      SetError(error, IndexIoCode::kNotBuilt,
               "index not built; call Build() before saving");
      return false;
    }
    BinaryWriter writer(&out, Checksum::kHash64);
    WriteHeader(&writer, kKindDelayMat,
                NetworkFingerprint(index.network_), index.options_);
    writer.WriteU64(index.theta_);
    writer.WriteVector<uint32_t>(index.counts_);
    writer.WriteF64(index.build_seconds_);
    writer.WriteChecksum();
    if (!writer.ok()) {
      SetError(error, IndexIoCode::kWriteFailed,
               "I/O failure while writing index");
      return false;
    }
    return true;
  }

  static std::unique_ptr<DelayMatIndex> ReadDelay(
      const SocialNetwork& network, std::istream& in, IndexIoError* error) {
    if (PITEX_FAILPOINT("index_io/load")) {
      SetError(error, IndexIoCode::kFaultInjected,
               "fault injected: index_io/load");
      return nullptr;
    }
    BinaryReader reader(&in, std::nullopt);
    auto index = ReadDelayBody(network, &reader, error);
    if (index == nullptr) UpgradeTornWrite(reader, error);
    return index;
  }

  static std::unique_ptr<DelayMatIndex> ReadDelayBody(
      const SocialNetwork& network, BinaryReader* reader_ptr,
      IndexIoError* error) {
    BinaryReader& reader = *reader_ptr;
    RrIndexOptions options;
    uint32_t version = 0;  // the DelayMat payload is the same in v2 and v3
    if (!ReadHeader(&reader, kKindDelayMat, network, &options, &version,
                    error)) {
      return nullptr;
    }
    uint64_t theta = 0;
    if (!reader.ReadU64(&theta)) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt index payload header");
      return nullptr;
    }
    options.theta_override = theta;
    auto index =
        std::unique_ptr<DelayMatIndex>(new DelayMatIndex(network, options));
    if (!reader.ReadVector(&index->counts_, network.num_vertices()) ||
        index->counts_.size() != network.num_vertices()) {
      SetError(error, IndexIoCode::kCorruptPayload, "corrupt counter payload");
      return nullptr;
    }
    for (uint32_t count : index->counts_) {
      if (count > theta) {
        SetError(error, IndexIoCode::kCorruptPayload, "counter exceeds theta: corrupt payload");
        return nullptr;
      }
    }
    if (!reader.ReadF64(&index->build_seconds_)) {
      SetError(error, IndexIoCode::kTruncated, "truncated index trailer");
      return nullptr;
    }
    if (!reader.VerifyChecksum()) {
      SetError(error,
               IndexIoCode::kChecksumMismatch,
               "checksum mismatch: file truncated or corrupted");
      return nullptr;
    }
    index->built_ = true;
    return index;
  }
};

const char* IndexIoCodeName(IndexIoCode code) {
  switch (code) {
    case IndexIoCode::kNone: return "ok";
    case IndexIoCode::kOpenFailed: return "open-failed";
    case IndexIoCode::kNotBuilt: return "not-built";
    case IndexIoCode::kWriteFailed: return "write-failed";
    case IndexIoCode::kBadMagic: return "bad-magic";
    case IndexIoCode::kBadVersion: return "bad-version";
    case IndexIoCode::kWrongKind: return "wrong-kind";
    case IndexIoCode::kFingerprintMismatch: return "fingerprint-mismatch";
    case IndexIoCode::kBadOptions: return "bad-options";
    case IndexIoCode::kCorruptPayload: return "corrupt-payload";
    case IndexIoCode::kTruncated: return "truncated";
    case IndexIoCode::kChecksumMismatch: return "checksum-mismatch";
    case IndexIoCode::kTornWrite: return "torn-write";
    case IndexIoCode::kFaultInjected: return "fault-injected";
  }
  return "?";
}

namespace {

// The std::string overloads keep their historical contract (message
// only) by delegating to the typed implementations and copying the
// message out.
void CopyMessage(const IndexIoError& typed, std::string* error) {
  if (error != nullptr) *error = typed.message;
}

// Crash-atomic path save: stream the payload into `path + ".tmp"`,
// fsync, rename over `path`, fsync the directory (src/util/file_sync.h).
// A crash at any point leaves the previous file intact; a failure
// removes the temp file so no orphan survives. `write` streams the
// payload and sets `*error` itself when it fails.
template <typename WriteFn>
bool SaveAtomically(const std::string& path, IndexIoError* error,
                    WriteFn&& write) {
  const std::string tmp = TempPathFor(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      SetError(error, IndexIoCode::kOpenFailed,
               "cannot open temp file for writing");
      return false;
    }
    if (!write(out)) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      SetError(error, IndexIoCode::kWriteFailed,
               "I/O failure while flushing index");
      return false;
    }
  }
  if (!AtomicReplaceFile(tmp, path)) {
    SetError(error, IndexIoCode::kWriteFailed,
             "failed to fsync+rename index into place");
    return false;
  }
  return true;
}

}  // namespace

// --- typed overloads (primary implementations) ---

bool SaveRrIndex(const RrIndex& index, std::ostream& out,
                 IndexIoError* error, uint64_t* bytes_hashed) {
  return IndexIo::WriteRr(index, out, bytes_hashed, error);
}

bool SaveRrIndex(const RrIndex& index, const std::string& path,
                 IndexIoError* error, uint64_t* bytes_hashed) {
  return SaveAtomically(path, error, [&](std::ostream& out) {
    return IndexIo::WriteRr(index, out, bytes_hashed, error);
  });
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     std::istream& in, IndexIoError* error) {
  return IndexIo::ReadRr(network, in, error);
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     const std::string& path,
                                     IndexIoError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, IndexIoCode::kOpenFailed, "cannot open file for reading");
    return nullptr;
  }
  return IndexIo::ReadRr(network, in, error);
}

bool SaveDelayMatIndex(const DelayMatIndex& index, std::ostream& out,
                       IndexIoError* error) {
  return IndexIo::WriteDelay(index, out, error);
}

bool SaveDelayMatIndex(const DelayMatIndex& index, const std::string& path,
                       IndexIoError* error) {
  return SaveAtomically(path, error, [&](std::ostream& out) {
    return IndexIo::WriteDelay(index, out, error);
  });
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 std::istream& in,
                                                 IndexIoError* error) {
  return IndexIo::ReadDelay(network, in, error);
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 const std::string& path,
                                                 IndexIoError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, IndexIoCode::kOpenFailed, "cannot open file for reading");
    return nullptr;
  }
  return IndexIo::ReadDelay(network, in, error);
}

// --- string-message compatibility overloads ---

bool SaveRrIndex(const RrIndex& index, std::ostream& out, std::string* error) {
  IndexIoError typed;
  const bool ok = SaveRrIndex(index, out, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

bool SaveRrIndex(const RrIndex& index, const std::string& path,
                 std::string* error) {
  IndexIoError typed;
  const bool ok = SaveRrIndex(index, path, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     std::istream& in, std::string* error) {
  IndexIoError typed;
  auto index = LoadRrIndex(network, in, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

std::unique_ptr<RrIndex> LoadRrIndex(const SocialNetwork& network,
                                     const std::string& path,
                                     std::string* error) {
  IndexIoError typed;
  auto index = LoadRrIndex(network, path, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

bool SaveDelayMatIndex(const DelayMatIndex& index, std::ostream& out,
                       std::string* error) {
  IndexIoError typed;
  const bool ok = SaveDelayMatIndex(index, out, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

bool SaveDelayMatIndex(const DelayMatIndex& index, const std::string& path,
                       std::string* error) {
  IndexIoError typed;
  const bool ok = SaveDelayMatIndex(index, path, &typed);
  if (!ok) CopyMessage(typed, error);
  return ok;
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 std::istream& in,
                                                 std::string* error) {
  IndexIoError typed;
  auto index = LoadDelayMatIndex(network, in, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

std::unique_ptr<DelayMatIndex> LoadDelayMatIndex(const SocialNetwork& network,
                                                 const std::string& path,
                                                 std::string* error) {
  IndexIoError typed;
  auto index = LoadDelayMatIndex(network, path, &typed);
  if (index == nullptr) CopyMessage(typed, error);
  return index;
}

}  // namespace pitex
