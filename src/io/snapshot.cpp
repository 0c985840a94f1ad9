#include "io/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "netlist/netlist.h"
#include "util/crc32.h"

namespace complx {

namespace {

// ---- little-endian primitives ---------------------------------------
// Explicit byte access (not memcpy of host integers) keeps the on-disk
// format identical across host endianness.

void put_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<uint64_t>(v));
}

uint32_t get_u32(std::string_view bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[off + static_cast<size_t>(i)]))
         << (8 * i);
  return v;
}

uint64_t get_u64(std::string_view bytes, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[off + static_cast<size_t>(i)]))
         << (8 * i);
  return v;
}

double get_f64(std::string_view bytes, size_t off) {
  return std::bit_cast<double>(get_u64(bytes, off));
}

// ---- hashing ---------------------------------------------------------

/// SplitMix64 finalizer: the cheap, high-quality 64-bit mixer used as the
/// Zobrist-style combining step.
constexpr uint64_t mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Hasher {
  uint64_t state;
  explicit Hasher(uint64_t seed) : state(mix64(seed)) {}
  void add(uint64_t v) { state = mix64(state ^ v); }
  void add_f64(double v) { add(std::bit_cast<uint64_t>(v)); }
};

/// Connectivity + cell-intrinsics: everything a stored placement needs to
/// be shape-compatible with the probing job. No core/rows/fixed
/// positions/density — those are the knobs a near-repeat job turns.
void hash_topology(const Netlist& nl, Hasher& h) {
  h.add(nl.num_cells());
  h.add(nl.num_nets());
  h.add(nl.num_pins());
  for (const Cell& c : nl.cells()) {
    h.add_f64(c.width);
    h.add_f64(c.height);
    h.add(static_cast<uint64_t>(c.kind));
  }
  for (const Net& n : nl.nets()) {
    h.add_f64(n.weight);
    h.add(n.num_pins);
    for (uint32_t k = 0; k < n.num_pins; ++k) {
      const Pin& p = nl.pin(n.first_pin + k);
      h.add(p.cell);
      h.add_f64(p.dx);
      h.add_f64(p.dy);
    }
  }
}

}  // namespace

uint64_t netlist_topology_hash(const Netlist& nl) {
  Hasher h(0x544F504Full);  // "TOPO"
  hash_topology(nl, h);
  return h.state;
}

uint64_t netlist_job_hash(const Netlist& nl) {
  Hasher h(0x4A4F4221ull);  // "JOB!"
  hash_topology(nl, h);
  // Geometry that defines the optimization problem — but NOT movable
  // positions: the same job resubmitted from any start must hit this key.
  h.add_f64(nl.core().xl);
  h.add_f64(nl.core().yl);
  h.add_f64(nl.core().xh);
  h.add_f64(nl.core().yh);
  h.add_f64(nl.target_density());
  for (const Cell& c : nl.cells()) {
    h.add(c.region);
    h.add(c.flipped_x ? 1u : 0u);
    if (!c.movable()) {
      h.add_f64(c.x);
      h.add_f64(c.y);
    }
  }
  h.add(nl.rows().size());
  for (const Row& r : nl.rows()) {
    h.add_f64(r.y);
    h.add_f64(r.height);
    h.add_f64(r.xl);
    h.add_f64(r.xh);
    h.add_f64(r.site_width);
  }
  h.add(nl.regions().size());
  for (const Region& r : nl.regions()) {
    h.add_f64(r.box.xl);
    h.add_f64(r.box.yl);
    h.add_f64(r.box.xh);
    h.add_f64(r.box.yh);
  }
  return h.state;
}

const char* to_string(SnapshotError e) {
  switch (e) {
    case SnapshotError::None: return "none";
    case SnapshotError::Truncated: return "truncated";
    case SnapshotError::BadMagic: return "bad-magic";
    case SnapshotError::VersionSkew: return "version-skew";
    case SnapshotError::BadHeader: return "bad-header";
    case SnapshotError::IndexCrc: return "index-crc";
    case SnapshotError::UnsortedKeys: return "unsorted-keys";
    case SnapshotError::BadRecord: return "bad-record";
    case SnapshotError::kCount: break;
  }
  return "unknown";
}

void SnapshotStats::count(SnapshotError e) {
  if (e != SnapshotError::None) ++failures[static_cast<size_t>(e)];
}

size_t SnapshotStats::load_failures() const {
  size_t n = 0;
  for (const size_t f : failures) n += f;
  return n;
}

// ---- serialization ---------------------------------------------------
//
// Header field offsets (total kSnapshotHeaderBytes = 64):
//    0  char[8]  magic "CPLXSNAP"
//    8  u32      version
//   12  u32      header_bytes (64)
//   16  u32      entry_bytes  (64)
//   20  u32      num_entries
//   24  u64      payload_bytes
//   32  u64      save_count
//   40  u32      index_crc            (CRC-32 of the index section)
//   44  u8[16]   reserved (zero)
//   60  u32      header_crc           (CRC-32 of header bytes [0, 60))
//
// Entry field offsets (total kSnapshotEntryBytes = 64):
//    0  u64      key (netlist_job_hash)
//    8  u64      topo (netlist_topology_hash)
//   16  u64      payload_offset       (from the start of the payload section)
//   24  u32      num_cells
//   28  u32      payload_crc          (CRC-32 of this record's payload)
//   32  f64      hpwl
//   40  u32      iterations
//   44  u32      saves
//   48  f64      target_density
//   56  u8[8]    reserved (zero)

std::string serialize_snapshot(std::vector<SnapshotRecord> records,
                               uint64_t save_count) {
  std::sort(records.begin(), records.end(),
            [](const SnapshotRecord& a, const SnapshotRecord& b) {
              return a.key < b.key;
            });
  for (size_t i = 0; i + 1 < records.size(); ++i)
    if (records[i].key == records[i + 1].key)
      throw std::invalid_argument("serialize_snapshot: duplicate key");

  // Payload first, so each index entry can carry its offset and CRC.
  std::string payload;
  std::vector<uint64_t> offsets(records.size());
  std::vector<uint32_t> crcs(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const SnapshotRecord& r = records[i];
    if (r.x.empty() || r.x.size() != r.y.size())
      throw std::invalid_argument(
          "serialize_snapshot: record needs matching non-empty x/y");
    offsets[i] = payload.size();
    const size_t begin = payload.size();
    for (const double v : r.x) put_f64(payload, v);
    for (const double v : r.y) put_f64(payload, v);
    crcs[i] = crc32(payload.data() + begin, payload.size() - begin);
  }

  std::string index;
  index.reserve(records.size() * kSnapshotEntryBytes);
  for (size_t i = 0; i < records.size(); ++i) {
    const SnapshotRecord& r = records[i];
    put_u64(index, r.key);
    put_u64(index, r.topo);
    put_u64(index, offsets[i]);
    put_u32(index, static_cast<uint32_t>(r.x.size()));
    put_u32(index, crcs[i]);
    put_f64(index, r.hpwl);
    put_u32(index, r.iterations);
    put_u32(index, r.saves);
    put_f64(index, r.target_density);
    index.append(8, '\0');
  }

  std::string out;
  out.reserve(kSnapshotHeaderBytes + index.size() + payload.size());
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(out, kSnapshotVersion);
  put_u32(out, kSnapshotHeaderBytes);
  put_u32(out, kSnapshotEntryBytes);
  put_u32(out, static_cast<uint32_t>(records.size()));
  put_u64(out, payload.size());
  put_u64(out, save_count);
  put_u32(out, crc32(index));
  out.append(16, '\0');
  put_u32(out, crc32(out.data(), out.size()));  // header CRC over [0, 60)
  out += index;
  out += payload;
  return out;
}

// ---- parsing / validation --------------------------------------------

namespace {

SnapshotParseResult reject(SnapshotError e, std::string detail) {
  SnapshotParseResult r;
  r.error = e;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

SnapshotParseResult parse_snapshot(std::string_view bytes,
                                   SnapshotStats& stats) {
  ++stats.loads;
  SnapshotParseResult result = [&]() -> SnapshotParseResult {
    if (bytes.size() < kSnapshotHeaderBytes)
      return reject(SnapshotError::Truncated,
                    "file is " + std::to_string(bytes.size()) +
                        " bytes, header needs " +
                        std::to_string(kSnapshotHeaderBytes));
    if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
      return reject(SnapshotError::BadMagic, "magic mismatch");
    const uint32_t version = get_u32(bytes, 8);
    if (version != kSnapshotVersion)
      return reject(SnapshotError::VersionSkew,
                    "file version " + std::to_string(version) +
                        ", reader supports " +
                        std::to_string(kSnapshotVersion));
    const uint32_t header_crc = get_u32(bytes, 60);
    if (crc32(bytes.data(), 60) != header_crc)
      return reject(SnapshotError::BadHeader, "header CRC mismatch");
    const uint32_t header_bytes = get_u32(bytes, 12);
    const uint32_t entry_bytes = get_u32(bytes, 16);
    if (header_bytes != kSnapshotHeaderBytes ||
        entry_bytes != kSnapshotEntryBytes)
      return reject(SnapshotError::BadHeader,
                    "unexpected header/entry sizes " +
                        std::to_string(header_bytes) + "/" +
                        std::to_string(entry_bytes));
    const uint32_t num_entries = get_u32(bytes, 20);
    const uint64_t payload_bytes = get_u64(bytes, 24);
    // Overflow-safe size check: index bytes fit in u64 (u32 count * 64),
    // cap payload at 2^62 so the sum cannot wrap.
    const uint64_t index_bytes =
        static_cast<uint64_t>(num_entries) * kSnapshotEntryBytes;
    if (payload_bytes > (1ull << 62))
      return reject(SnapshotError::BadHeader, "absurd payload size");
    const uint64_t expected =
        kSnapshotHeaderBytes + index_bytes + payload_bytes;
    if (bytes.size() < expected)
      return reject(SnapshotError::Truncated,
                    "file is " + std::to_string(bytes.size()) +
                        " bytes, header declares " + std::to_string(expected));
    if (bytes.size() > expected)
      return reject(SnapshotError::BadHeader,
                    std::to_string(bytes.size() - expected) +
                        " trailing bytes past declared size");

    const size_t index_off = kSnapshotHeaderBytes;
    const size_t payload_off = index_off + static_cast<size_t>(index_bytes);
    if (crc32(bytes.data() + index_off, static_cast<size_t>(index_bytes)) !=
        get_u32(bytes, 40))
      return reject(SnapshotError::IndexCrc, "index CRC mismatch");

    SnapshotParseResult ok;
    ok.save_count = get_u64(bytes, 32);
    ok.records.reserve(num_entries);
    uint64_t prev_key = 0;
    for (uint32_t i = 0; i < num_entries; ++i) {
      const size_t e = index_off + static_cast<size_t>(i) * kSnapshotEntryBytes;
      SnapshotRecord rec;
      rec.key = get_u64(bytes, e);
      if (i > 0 && rec.key <= prev_key)
        return reject(SnapshotError::UnsortedKeys,
                      "entry " + std::to_string(i) +
                          " key not strictly ascending");
      prev_key = rec.key;
      rec.topo = get_u64(bytes, e + 8);
      const uint64_t rec_off = get_u64(bytes, e + 16);
      const uint32_t num_cells = get_u32(bytes, e + 24);
      const uint32_t rec_crc = get_u32(bytes, e + 28);
      rec.hpwl = get_f64(bytes, e + 32);
      rec.iterations = get_u32(bytes, e + 40);
      rec.saves = get_u32(bytes, e + 44);
      rec.target_density = get_f64(bytes, e + 48);
      const uint64_t rec_bytes = static_cast<uint64_t>(num_cells) * 16;
      if (num_cells == 0 || rec_off > payload_bytes ||
          rec_bytes > payload_bytes - rec_off)
        return reject(SnapshotError::BadRecord,
                      "entry " + std::to_string(i) +
                          " payload range out of bounds");
      // Payload CRC failure is RECORD-scoped: drop this entry, keep the
      // rest of the store serviceable.
      const size_t p = payload_off + static_cast<size_t>(rec_off);
      if (crc32(bytes.data() + p, static_cast<size_t>(rec_bytes)) != rec_crc) {
        ++ok.records_dropped;
        ++stats.record_crc;
        continue;
      }
      rec.x.resize(num_cells);
      rec.y.resize(num_cells);
      for (uint32_t c = 0; c < num_cells; ++c)
        rec.x[c] = get_f64(bytes, p + static_cast<size_t>(c) * 8);
      for (uint32_t c = 0; c < num_cells; ++c)
        rec.y[c] =
            get_f64(bytes, p + static_cast<size_t>(num_cells + c) * 8);
      ok.records.push_back(std::move(rec));
    }
    return ok;
  }();

  stats.count(result.error);
  return result;
}

}  // namespace complx
