// Chaos suite (`ctest -L chaos`): fault injection for the crash-safe I/O
// layer. Three battlegrounds:
//   1. the snapshot format — every whole-file corruption class must map to
//      its SnapshotError rung (never UB, never a throw), and a payload bit
//      flip must cost exactly one record;
//   2. the atomic write protocol — every injected failure (short write,
//      fsync, rename, open, in-flight corruption) must leave the previous
//      destination intact and no temp litter;
//   3. the ExperienceStore + placer — corrupt stores quarantine and degrade
//      to cold starts, saves self-heal, warm starts beat cold iteration
//      counts on exact repeats, and a miss is bitwise identical to cold.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/placer.h"
#include "helpers.h"
#include "io/experience.h"
#include "io/snapshot.h"
#include "netlist/netlist.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Scratch-directory + byte-surgery helpers.

struct ScratchDir {
  fs::path dir;
  explicit ScratchDir(const std::string& name)
      : dir(fs::path(::testing::TempDir()) / ("complx_chaos_" + name)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string file(const std::string& name) const {
    return (dir / name).string();
  }
  /// Files currently in the directory (for temp-litter assertions).
  std::vector<std::string> entries() const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir))
      out.push_back(e.path().filename().string());
    return out;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint32_t read_u32(const std::string& s, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(static_cast<unsigned char>(
             s[off + static_cast<size_t>(i)]))
         << (8 * i);
  return v;
}

void patch_u32(std::string& s, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    s[off + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
}

/// Recomputes index + header CRCs after a deliberate index/header edit, so
/// the parser reaches the rung under test instead of failing on a CRC above
/// it (the forger's move a CRC alone cannot stop — structure checks must).
void reseal(std::string& img) {
  const uint32_t n = read_u32(img, 20);
  patch_u32(img, 40,
            crc32(img.data() + kSnapshotHeaderBytes,
                  static_cast<size_t>(n) * kSnapshotEntryBytes));
  patch_u32(img, 60, crc32(img.data(), 60));
}

SnapshotRecord make_record(uint64_t key, size_t cells) {
  SnapshotRecord r;
  r.key = key;
  r.topo = key * 1000 + 7;
  r.hpwl = 123.5 * static_cast<double>(key);
  r.target_density = 0.9;
  r.iterations = 12;
  r.saves = 2;
  for (size_t i = 0; i < cells; ++i) {
    r.x.push_back(static_cast<double>(i) + 0.25);
    r.y.push_back(-static_cast<double>(i) - 0.5);
  }
  // Bit-pattern edge cases the round trip must preserve exactly: signed
  // zero and a subnormal.
  r.x[0] = -0.0;
  r.y[0] = 4.9406564584124654e-324;
  return r;
}

/// testing::two_cell_chain with a movable pad-1 geometry: identical
/// connectivity (same topology hash), different job (fixed-cell position
/// and core extent feed netlist_job_hash).
Netlist chain_variant(double pad_x) {
  Netlist nl;
  Cell pad0;
  pad0.width = pad0.height = 0.0;
  pad0.x = 0.0;
  pad0.y = 6.0;
  pad0.kind = CellKind::Fixed;
  const CellId p0 = nl.add_cell(pad0, "pad0");

  Cell pad1 = pad0;
  pad1.x = pad_x;
  const CellId p1 = nl.add_cell(pad1, "pad1");

  Cell c;
  c.width = 2.0;
  c.height = 12.0;
  c.kind = CellKind::Movable;
  const CellId c0 = nl.add_cell(c, "c0");
  const CellId c1 = nl.add_cell(c, "c1");

  nl.add_net("e0", 1.0, {{p0, 0, 0}, {c0, 0, 0}});
  nl.add_net("e1", 1.0, {{c0, 0, 0}, {c1, 0, 0}});
  nl.add_net("e2", 1.0, {{c1, 0, 0}, {p1, 0, 0}});
  nl.set_core({0.0, 0.0, pad_x, 12.0});
  nl.finalize();
  return nl;
}

// ---------------------------------------------------------------------------
// Snapshot format: round trip + hashing.

TEST(SnapshotFormat, RoundTripIsBitwise) {
  std::vector<SnapshotRecord> recs = {make_record(5, 3), make_record(2, 1),
                                      make_record(9, 4)};
  const std::string img = serialize_snapshot(recs, 17);

  SnapshotStats stats;
  const SnapshotParseResult out = parse_snapshot(img, stats);
  ASSERT_EQ(out.error, SnapshotError::None) << out.detail;
  EXPECT_EQ(out.save_count, 17u);
  EXPECT_EQ(out.records_dropped, 0u);
  ASSERT_EQ(out.records.size(), 3u);
  // Sorted by key regardless of input order.
  EXPECT_EQ(out.records[0].key, 2u);
  EXPECT_EQ(out.records[1].key, 5u);
  EXPECT_EQ(out.records[2].key, 9u);
  const SnapshotRecord& got = out.records[1];
  const SnapshotRecord want = make_record(5, 3);
  EXPECT_EQ(got.topo, want.topo);
  EXPECT_EQ(got.hpwl, want.hpwl);
  EXPECT_EQ(got.target_density, want.target_density);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.saves, want.saves);
  testing::expect_vec_bitwise_equal(got.x, want.x, "record x");
  testing::expect_vec_bitwise_equal(got.y, want.y, "record y");
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.load_failures(), 0u);
}

// One counter slot per SnapshotError value, and every value below kCount
// has its own name: a new corruption class needs only its enumerator and
// its to_string case.
static_assert(std::tuple_size_v<decltype(SnapshotStats::failures)> ==
              static_cast<size_t>(SnapshotError::kCount));

TEST(SnapshotFormat, EveryErrorClassHasItsOwnName) {
  std::set<std::string> names;
  for (size_t k = 0; k < static_cast<size_t>(SnapshotError::kCount); ++k) {
    const std::string name = to_string(static_cast<SnapshotError>(k));
    EXPECT_NE(name, "unknown") << k;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

TEST(SnapshotFormat, SerializeRejectsLogicErrors) {
  SnapshotStats stats;
  std::vector<SnapshotRecord> dup = {make_record(4, 2), make_record(4, 2)};
  EXPECT_THROW(serialize_snapshot(dup, 1), std::invalid_argument);
  SnapshotRecord lop = make_record(3, 2);
  lop.y.pop_back();
  EXPECT_THROW(serialize_snapshot({lop}, 1), std::invalid_argument);
  (void)stats;
}

TEST(SnapshotFormat, JobHashIgnoresMovableStartPositions) {
  const Netlist nl = testing::two_cell_chain();
  const uint64_t before = netlist_job_hash(nl);

  Netlist moved = testing::two_cell_chain();
  Placement p = moved.snapshot();
  for (const CellId id : moved.movable_cells()) {
    p.x[id] += 3.0;
    p.y[id] += 1.0;
  }
  moved.apply(p);
  EXPECT_EQ(netlist_job_hash(moved), before)
      << "a re-submitted job must probe to the same record";
}

TEST(SnapshotFormat, TopologyHashSurvivesGeometryChangesJobHashDoesNot) {
  const Netlist a = chain_variant(30.0);
  const Netlist b = chain_variant(40.0);
  EXPECT_EQ(netlist_topology_hash(a), netlist_topology_hash(b));
  EXPECT_NE(netlist_job_hash(a), netlist_job_hash(b));
  // Different connectivity → different topology.
  const Netlist mesh = testing::mesh_netlist(3);
  EXPECT_NE(netlist_topology_hash(a), netlist_topology_hash(mesh));
}

// ---------------------------------------------------------------------------
// Snapshot format: the corruption ladder. Every class must be detected,
// reported as its own SnapshotError, counted, and yield zero records.

struct CorruptionCase {
  const char* name;
  SnapshotError want;
  std::string (*mutate)(std::string img);
};

std::string clean_image() {
  return serialize_snapshot({make_record(11, 3), make_record(22, 2)}, 4);
}

TEST(SnapshotCorruption, EveryWholeFileClassIsDetected) {
  const CorruptionCase cases[] = {
      {"empty file", SnapshotError::Truncated,
       [](std::string) { return std::string(); }},
      {"shorter than header", SnapshotError::Truncated,
       [](std::string img) { return img.substr(0, 20); }},
      {"flipped magic byte", SnapshotError::BadMagic,
       [](std::string img) {
         img[0] = static_cast<char>(img[0] ^ 0x40);
         return img;
       }},
      {"future version", SnapshotError::VersionSkew,
       [](std::string img) {
         patch_u32(img, 8, kSnapshotVersion + 1);
         return img;
       }},
      {"header bit flip", SnapshotError::BadHeader,
       [](std::string img) {
         img[45] = static_cast<char>(img[45] ^ 0x01);  // reserved region
         return img;
       }},
      {"forged entry size", SnapshotError::BadHeader,
       [](std::string img) {
         patch_u32(img, 16, 32);
         reseal(img);
         return img;
       }},
      {"truncated payload", SnapshotError::Truncated,
       [](std::string img) { return img.substr(0, img.size() - 1); }},
      {"trailing garbage", SnapshotError::BadHeader,
       [](std::string img) { return img + 'x'; }},
      {"index bit flip", SnapshotError::IndexCrc,
       [](std::string img) {
         img[kSnapshotHeaderBytes + 3] =
             static_cast<char>(img[kSnapshotHeaderBytes + 3] ^ 0x10);
         return img;
       }},
      {"swapped (unsorted) entries", SnapshotError::UnsortedKeys,
       [](std::string img) {
         const std::string a =
             img.substr(kSnapshotHeaderBytes, kSnapshotEntryBytes);
         const std::string b = img.substr(
             kSnapshotHeaderBytes + kSnapshotEntryBytes, kSnapshotEntryBytes);
         img.replace(kSnapshotHeaderBytes, kSnapshotEntryBytes, b);
         img.replace(kSnapshotHeaderBytes + kSnapshotEntryBytes,
                     kSnapshotEntryBytes, a);
         reseal(img);
         return img;
       }},
      {"duplicate keys", SnapshotError::UnsortedKeys,
       [](std::string img) {
         // Copy entry 0's key over entry 1's.
         img.replace(kSnapshotHeaderBytes + kSnapshotEntryBytes, 8,
                     img.substr(kSnapshotHeaderBytes, 8));
         reseal(img);
         return img;
       }},
      {"zero-cell record", SnapshotError::BadRecord,
       [](std::string img) {
         patch_u32(img, kSnapshotHeaderBytes + 24, 0);
         reseal(img);
         return img;
       }},
      {"payload range overflow", SnapshotError::BadRecord,
       [](std::string img) {
         patch_u32(img, kSnapshotHeaderBytes + 24, 0xFFFFFFFFu);
         reseal(img);
         return img;
       }},
  };

  for (const CorruptionCase& c : cases) {
    SnapshotStats stats;
    const SnapshotParseResult out = parse_snapshot(c.mutate(clean_image()),
                                                   stats);
    EXPECT_EQ(out.error, c.want)
        << c.name << ": got " << to_string(out.error) << " (" << out.detail
        << ")";
    EXPECT_TRUE(out.records.empty()) << c.name;
    EXPECT_FALSE(out.detail.empty()) << c.name;
    EXPECT_EQ(stats.loads, 1u) << c.name;
    EXPECT_EQ(stats.load_failures(), 1u) << c.name;
    // The counter for exactly this class must be the one that moved.
    for (size_t k = 0; k < stats.failures.size(); ++k) {
      const auto e = static_cast<SnapshotError>(k);
      EXPECT_EQ(stats[e], e == c.want ? 1u : 0u)
          << c.name << ": " << to_string(e);
    }
  }
}

TEST(SnapshotCorruption, PayloadBitFlipDropsOnlyThatRecord) {
  std::string img = clean_image();
  // Payload starts after header + 2 entries; offset 0 belongs to the
  // smaller key (11), whose record is 3 cells = 48 bytes.
  const size_t payload_off =
      kSnapshotHeaderBytes + 2 * kSnapshotEntryBytes;
  img[payload_off + 5] = static_cast<char>(img[payload_off + 5] ^ 0x80);

  SnapshotStats stats;
  const SnapshotParseResult out = parse_snapshot(img, stats);
  EXPECT_EQ(out.error, SnapshotError::None) << out.detail;
  EXPECT_EQ(out.records_dropped, 1u);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].key, 22u);  // the undamaged record survives
  EXPECT_EQ(stats.record_crc, 1u);
  EXPECT_EQ(stats.load_failures(), 0u);
}

// ---------------------------------------------------------------------------
// Atomic write protocol under injected faults.

TEST(AtomicWriteChaos, ShortWriteKeepsDestinationAndLeavesNoTemp) {
  ScratchDir d("short_write");
  const std::string path = d.file("out.bin");
  write_file_atomic(path, "previous content");

  IoFaultInjection faults;
  faults.short_write = [](size_t want) { return want / 2; };
  AtomicWriteOptions opts;
  opts.faults = &faults;
  EXPECT_THROW(write_file_atomic(path, "new content that must not land", opts),
               std::runtime_error);

  EXPECT_EQ(read_file(path), "previous content");
  EXPECT_EQ(d.entries(), std::vector<std::string>{"out.bin"});
}

TEST(AtomicWriteChaos, OpenFsyncRenameFaultsAllKeepPreviousContent) {
  ScratchDir d("io_faults");
  const std::string path = d.file("out.bin");
  write_file_atomic(path, "previous content");

  IoFaultInjection faults[3];
  faults[0].fail_open = [] { return true; };
  faults[1].fail_fsync = [] { return true; };
  faults[2].fail_rename = [] { return true; };
  for (const IoFaultInjection& f : faults) {
    AtomicWriteOptions opts;
    opts.faults = &f;
    EXPECT_THROW(write_file_atomic(path, "torn", opts), std::runtime_error);
    EXPECT_EQ(read_file(path), "previous content");
    EXPECT_EQ(d.entries(), std::vector<std::string>{"out.bin"});
  }
}

TEST(AtomicWriteChaos, WriterWithoutCommitWritesNothing) {
  ScratchDir d("no_commit");
  const std::string path = d.file("out.txt");
  {
    AtomicFileWriter w(path);
    w.stream() << "composed but never committed";
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(d.entries().empty());
}

// ---------------------------------------------------------------------------
// ExperienceStore: load/quarantine/self-heal/probe/evict under chaos.

ExperienceStore::Options store_opts(const std::string& path) {
  ExperienceStore::Options o;
  o.path = path;
  o.fsync = false;  // tmpfs test scratch; durability is exercised above
  return o;
}

TEST(ExperienceStoreChaos, MissingFileIsACleanEmptyStore) {
  ScratchDir d("missing");
  ExperienceStore store(store_opts(d.file("none.snap")));
  EXPECT_EQ(store.open(), SnapshotError::None);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.degraded());
  EXPECT_EQ(store.lookup(testing::two_cell_chain()).kind,
            ExperienceStore::MatchKind::Miss);
}

TEST(ExperienceStoreChaos, SaveThenReloadServesAnExactBitwiseHit) {
  ScratchDir d("roundtrip");
  const std::string path = d.file("exp.snap");
  const Netlist nl = testing::small_circuit(3, 300);
  const Placement p = nl.snapshot();
  const double hpwl = weighted_hpwl(nl, p);

  {
    ExperienceStore store(store_opts(path));
    ASSERT_EQ(store.open(), SnapshotError::None);
    EXPECT_TRUE(store.record(nl, p, hpwl, 7));
    EXPECT_FALSE(store.degraded());
  }

  ExperienceStore reloaded(store_opts(path));
  ASSERT_EQ(reloaded.open(), SnapshotError::None);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.save_count(), 1u);
  const ExperienceStore::Probe hit = reloaded.lookup(nl);
  ASSERT_EQ(hit.kind, ExperienceStore::MatchKind::Exact);
  ASSERT_TRUE(hit.record.has_value());
  EXPECT_EQ(hit.record->iterations, 7u);
  EXPECT_EQ(hit.record->saves, 1u);
  EXPECT_EQ(hit.record->hpwl, hpwl);
  testing::expect_vec_bitwise_equal(hit.record->x, p.x, "stored x");
  testing::expect_vec_bitwise_equal(hit.record->y, p.y, "stored y");
}

// A probe owns its record: a later record() for the same job rewrites the
// store's entry, never the coordinates a caller already holds.
TEST(ExperienceStoreChaos, ProbeKeepsItsRecordAcrossALaterSave) {
  ScratchDir d("probe_copy");
  ExperienceStore store(store_opts(d.file("exp.snap")));
  ASSERT_EQ(store.open(), SnapshotError::None);
  const Netlist nl = testing::small_circuit(3, 300);
  const Placement old_p = nl.snapshot();
  ASSERT_TRUE(store.record(nl, old_p, 1.0, 5));

  const ExperienceStore::Probe probe = store.lookup(nl);
  ASSERT_EQ(probe.kind, ExperienceStore::MatchKind::Exact);
  ASSERT_TRUE(probe.record.has_value());

  Placement new_p = old_p;
  for (CellId id : nl.movable_cells()) {
    new_p.x[id] += 1.0;
    new_p.y[id] += 1.0;
  }
  ASSERT_TRUE(store.record(nl, new_p, 2.0, 6));

  testing::expect_vec_bitwise_equal(probe.record->x, old_p.x, "probe x");
  testing::expect_vec_bitwise_equal(probe.record->y, old_p.y, "probe y");
  EXPECT_EQ(probe.record->iterations, 5u);
  EXPECT_EQ(store.lookup(nl).record->iterations, 6u);
}

TEST(ExperienceStoreChaos, TopologyMatchServesNearRepeatJobs) {
  ScratchDir d("topo");
  ExperienceStore store(store_opts(d.file("exp.snap")));
  ASSERT_EQ(store.open(), SnapshotError::None);

  const Netlist original = chain_variant(30.0);
  ASSERT_TRUE(store.record(original, original.snapshot(), 1.0, 5));

  const Netlist resized = chain_variant(40.0);  // same connectivity
  const ExperienceStore::Probe hit = store.lookup(resized);
  EXPECT_EQ(hit.kind, ExperienceStore::MatchKind::Topology);
  ASSERT_TRUE(hit.record.has_value());
  EXPECT_EQ(hit.record->key, netlist_job_hash(original));
}

TEST(ExperienceStoreChaos, CorruptStoreQuarantinesDegradesAndSelfHeals) {
  ScratchDir d("quarantine");
  const std::string path = d.file("exp.snap");
  // Long enough to clear the header-size rung, so the magic check is what
  // rejects it.
  write_file(path,
             "this is certainly not a snapshot image, but it is at least "
             "sixty-four bytes of honest plain text");

  ExperienceStore store(store_opts(path));
  EXPECT_EQ(store.open(), SnapshotError::BadMagic);
  EXPECT_TRUE(store.degraded());
  EXPECT_FALSE(store.degraded_reason().empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats()[SnapshotError::BadMagic], 1u);
  // Evidence preserved, live path cleared.
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  EXPECT_FALSE(fs::exists(path));

  // The next save self-heals the live path...
  const Netlist nl = testing::two_cell_chain();
  EXPECT_TRUE(store.record(nl, nl.snapshot(), 1.0, 4));
  EXPECT_TRUE(fs::exists(path));
  // ...into a store a fresh process opens cleanly.
  ExperienceStore healed(store_opts(path));
  EXPECT_EQ(healed.open(), SnapshotError::None);
  EXPECT_EQ(healed.lookup(nl).kind, ExperienceStore::MatchKind::Exact);
}

TEST(ExperienceStoreChaos, DroppedRecordDegradesButKeepsServing) {
  ScratchDir d("partial");
  const std::string path = d.file("exp.snap");
  const Netlist a = chain_variant(30.0);
  const Netlist b = testing::small_circuit(5, 100);
  {
    ExperienceStore store(store_opts(path));
    ASSERT_EQ(store.open(), SnapshotError::None);
    ASSERT_TRUE(store.record(a, a.snapshot(), 1.0, 3));
    ASSERT_TRUE(store.record(b, b.snapshot(), 2.0, 4));
  }
  // Flip one payload byte: exactly one record's CRC dies.
  std::string img = read_file(path);
  const size_t payload_off = kSnapshotHeaderBytes + 2 * kSnapshotEntryBytes;
  ASSERT_GT(img.size(), payload_off);
  img[payload_off] = static_cast<char>(img[payload_off] ^ 0x01);
  write_file(path, img);

  ExperienceStore store(store_opts(path));
  EXPECT_EQ(store.open(), SnapshotError::None);
  EXPECT_TRUE(store.degraded());  // data loss is never silent
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().record_crc, 1u);
  // Whichever record survived still probes exactly.
  const bool a_hit =
      store.lookup(a).kind == ExperienceStore::MatchKind::Exact;
  const bool b_hit =
      store.lookup(b).kind == ExperienceStore::MatchKind::Exact;
  EXPECT_NE(a_hit, b_hit);
}

TEST(ExperienceStoreChaos, FailedSaveDegradesButPreviousStoreSurvives) {
  ScratchDir d("failed_save");
  const std::string path = d.file("exp.snap");
  const Netlist a = testing::small_circuit(1, 100);
  const Netlist b = testing::small_circuit(2, 100);

  bool inject = false;
  IoFaultInjection faults;
  faults.fail_rename = [&inject] { return inject; };
  ExperienceStore::Options opts = store_opts(path);
  opts.faults = &faults;

  ExperienceStore store(opts);
  ASSERT_EQ(store.open(), SnapshotError::None);
  ASSERT_TRUE(store.record(a, a.snapshot(), 1.0, 3));

  inject = true;
  EXPECT_FALSE(store.record(b, b.snapshot(), 2.0, 4));
  EXPECT_TRUE(store.degraded());
  // In-memory record kept: this session can still warm-start b.
  EXPECT_EQ(store.lookup(b).kind, ExperienceStore::MatchKind::Exact);

  // On disk: the pre-failure store, fully intact (atomic protocol).
  ExperienceStore reloaded(store_opts(path));
  ASSERT_EQ(reloaded.open(), SnapshotError::None);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.lookup(a).kind, ExperienceStore::MatchKind::Exact);
  EXPECT_EQ(reloaded.lookup(b).kind, ExperienceStore::MatchKind::Miss);
}

TEST(ExperienceStoreChaos, InFlightCorruptionIsCaughtAtNextOpen) {
  ScratchDir d("in_flight");
  const std::string path = d.file("exp.snap");
  IoFaultInjection faults;
  faults.corrupt_bytes = [](std::string& bytes) {
    bytes[61] = static_cast<char>(bytes[61] ^ 0x01);  // inside header CRC
  };
  ExperienceStore::Options opts = store_opts(path);
  opts.faults = &faults;

  ExperienceStore store(opts);
  ASSERT_EQ(store.open(), SnapshotError::None);
  const Netlist nl = testing::two_cell_chain();
  // The write itself succeeds — the protocol cannot see in-flight damage.
  EXPECT_TRUE(store.record(nl, nl.snapshot(), 1.0, 3));

  // Only the reader's validation can: the next open detects, quarantines.
  ExperienceStore reloaded(store_opts(path));
  EXPECT_EQ(reloaded.open(), SnapshotError::BadHeader);
  EXPECT_TRUE(reloaded.degraded());
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
}

TEST(ExperienceStoreChaos, EvictionDropsLeastSavedRecordFirst) {
  ScratchDir d("evict");
  ExperienceStore::Options opts = store_opts(d.file("exp.snap"));
  opts.max_records = 2;
  ExperienceStore store(opts);

  const Netlist n1 = testing::small_circuit(1, 100);
  const Netlist n2 = testing::small_circuit(2, 100);
  const Netlist n3 = testing::small_circuit(3, 100);
  ASSERT_TRUE(store.record(n1, n1.snapshot(), 1.0, 3));
  ASSERT_TRUE(store.record(n1, n1.snapshot(), 1.0, 3));  // saves = 2
  ASSERT_TRUE(store.record(n2, n2.snapshot(), 2.0, 3));
  ASSERT_TRUE(store.record(n3, n3.snapshot(), 3.0, 3));  // evicts n2

  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.lookup(n1).kind, ExperienceStore::MatchKind::Exact);
  EXPECT_EQ(store.lookup(n2).kind, ExperienceStore::MatchKind::Miss);
  EXPECT_EQ(store.lookup(n3).kind, ExperienceStore::MatchKind::Exact);
}

// ---------------------------------------------------------------------------
// Placer integration: warm starts help, misses change nothing.

ComplxConfig chaos_config() {
  ComplxConfig cfg;
  cfg.max_iterations = 60;
  cfg.min_iterations = 5;
  return cfg;
}

TEST(ExperienceWarmStart, ExactRepeatResumesAndConvergesFaster) {
  const Netlist nl = testing::small_circuit(71, 1200);
  const PlaceResult cold = ComplxPlacer(nl, chaos_config()).place();
  ASSERT_NE(cold.stop, StopReason::Diverged) << cold.failure;
  ASSERT_EQ(cold.stop, StopReason::Converged);

  ScratchDir d("exact_repeat");
  ExperienceStore store(store_opts(d.file("exp.snap")));
  ASSERT_TRUE(store.record(nl, cold.anchors,
                           weighted_hpwl(nl, cold.anchors), cold.iterations));

  const std::optional<Placement> start = store.resume_point(nl);
  ASSERT_TRUE(start.has_value());
  const PlaceResult warm = ComplxPlacer(nl, chaos_config()).resume(*start);
  ASSERT_NE(warm.stop, StopReason::Diverged) << warm.failure;
  // The cold run starts on a coarse grid; the resumed one starts at the
  // finest and stays there.
  EXPECT_LT(cold.trace.front().grid_bins, warm.trace.front().grid_bins);
  EXPECT_EQ(warm.trace.front().grid_bins, warm.trace.back().grid_bins);
  EXPECT_LT(warm.iterations, cold.iterations)
      << "an exact repeat must need fewer solver iterations than cold";
  EXPECT_LT(warm.returned.overflow_ratio, 0.25);
}

TEST(ExperienceWarmStart, MissIsBitwiseIdenticalToColdStart) {
  const Netlist other = testing::small_circuit(11, 600);
  const Netlist nl = testing::small_circuit(12, 600);

  ScratchDir d("miss");
  ExperienceStore store(store_opts(d.file("exp.snap")));
  ASSERT_TRUE(store.record(other, other.snapshot(), 1.0, 5));
  ASSERT_EQ(store.lookup(nl).kind, ExperienceStore::MatchKind::Miss);

  // A miss hands the caller nothing to resume from, so it places cold —
  // the same call a run without a store makes.
  const std::optional<Placement> start = store.resume_point(nl);
  EXPECT_FALSE(start.has_value());
  ComplxPlacer placer(nl, chaos_config());
  const PlaceResult probed = start ? placer.resume(*start) : placer.place();
  const PlaceResult cold = ComplxPlacer(nl, chaos_config()).place();

  EXPECT_EQ(probed.trace.front().grid_bins, cold.trace.front().grid_bins);
  EXPECT_EQ(probed.iterations, cold.iterations);
  testing::expect_placements_bitwise_equal(probed.anchors, cold.anchors);
  testing::expect_placements_bitwise_equal(probed.lower_bound,
                                           cold.lower_bound);
}

// A topology hit (same connectivity, one fixed cell moved) resumes the
// movable cells from the record but keeps the probed netlist's fixed cells:
// the record's stale terminal positions must never leak into the start.
TEST(ExperienceStore, ResumePointKeepsThisNetlistsFixedCells) {
  const Netlist nl = testing::small_circuit(13, 400);
  Placement stored = nl.snapshot();
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    stored.x[id] += 1.5;
    stored.y[id] -= 2.5;
  }
  ScratchDir d("resume_point");
  ExperienceStore store(store_opts(d.file("exp.snap")));
  ASSERT_TRUE(store.record(nl, stored, 1.0, 7));

  Netlist moved = nl;
  CellId fixed = 0;
  while (fixed < moved.num_cells() && moved.cell(fixed).movable()) ++fixed;
  ASSERT_LT(fixed, moved.num_cells()) << "test circuit has no fixed cell";
  moved.cell(fixed).x += 10.0;
  ASSERT_EQ(store.lookup(moved).kind, ExperienceStore::MatchKind::Topology);

  const std::optional<Placement> start = store.resume_point(moved);
  ASSERT_TRUE(start.has_value());
  const Placement here = moved.snapshot();
  for (CellId id = 0; id < moved.num_cells(); ++id) {
    const Placement& want = moved.cell(id).movable() ? stored : here;
    EXPECT_EQ(testing::bits(start->x[id]), testing::bits(want.x[id])) << id;
    EXPECT_EQ(testing::bits(start->y[id]), testing::bits(want.y[id])) << id;
  }
  EXPECT_NE(testing::bits(start->x[fixed]), testing::bits(stored.x[fixed]));
}

}  // namespace
}  // namespace complx
