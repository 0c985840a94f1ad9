// Table test over the committed malformed-input corpus (tests/corpus/, see
// its README.md): every damaged file must produce its documented, defined
// error — never a crash, an out-of-bounds read, or a silent success. CI
// runs this under ASan/UBSan, so "defined" is enforced by the sanitizers,
// not just by the assertions.
//
// The corpus is committed bytes, not test-synthesized: it pins the on-disk
// formats, so a behavioural change in the snapshot layout or the Bookshelf
// parser fails here and forces a deliberate corpus update.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "bookshelf/reader.h"
#include "io/snapshot.h"

namespace complx {
namespace {

std::string corpus(const std::string& rel) {
  return std::string(COMPLX_CORPUS_DIR) + "/" + rel;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "corpus file missing: " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Snapshot images.

struct SnapshotCase {
  const char* file;
  SnapshotError want;
};

TEST(CorruptCorpus, SnapshotFilesMapToDocumentedErrors) {
  const SnapshotCase cases[] = {
      {"snapshot_empty.snap", SnapshotError::Truncated},
      {"snapshot_garbage.snap", SnapshotError::BadMagic},
      {"snapshot_truncated.snap", SnapshotError::Truncated},
      {"snapshot_trailing.snap", SnapshotError::BadHeader},
      {"snapshot_version_skew.snap", SnapshotError::VersionSkew},
      {"snapshot_header_bitflip.snap", SnapshotError::BadHeader},
      {"snapshot_index_bitflip.snap", SnapshotError::IndexCrc},
  };
  for (const SnapshotCase& c : cases) {
    SnapshotStats stats;
    const SnapshotParseResult out =
        parse_snapshot(read_bytes(corpus(c.file)), stats);
    EXPECT_EQ(out.error, c.want)
        << c.file << ": got " << to_string(out.error) << " (" << out.detail
        << ")";
    EXPECT_TRUE(out.records.empty()) << c.file;
    EXPECT_EQ(stats.load_failures(), 1u) << c.file;
    EXPECT_EQ(stats[c.want], 1u) << c.file;
  }
}

TEST(CorruptCorpus, ValidSnapshotIsThePositiveControl) {
  SnapshotStats stats;
  const SnapshotParseResult out =
      parse_snapshot(read_bytes(corpus("snapshot_valid.snap")), stats);
  ASSERT_EQ(out.error, SnapshotError::None) << out.detail;
  EXPECT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.save_count, 3u);
  EXPECT_EQ(out.records[0].key, 0x1111111111111111ull);
  EXPECT_EQ(out.records[1].key, 0x2222222222222222ull);
}

TEST(CorruptCorpus, PayloadBitFlipDropsExactlyOneRecord) {
  SnapshotStats stats;
  const SnapshotParseResult out = parse_snapshot(
      read_bytes(corpus("snapshot_payload_bitflip.snap")), stats);
  EXPECT_EQ(out.error, SnapshotError::None) << out.detail;
  EXPECT_EQ(out.records_dropped, 1u);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].key, 0x2222222222222222ull);
  EXPECT_EQ(stats.record_crc, 1u);
}

// ---------------------------------------------------------------------------
// Bookshelf families. Every defect must surface as std::runtime_error with
// a non-empty diagnostic (the reader promises file/line context).

TEST(CorruptCorpus, BookshelfFamiliesThrowDefinedErrors) {
  const char* families[] = {
      "bookshelf_missing_nodes", "bookshelf_empty_aux",
      "bookshelf_bad_number",    "bookshelf_dangling_pin",
      "bookshelf_bad_pl",        "bookshelf_trailing_junk",
      "bookshelf_nonfinite",
  };
  for (const char* fam : families) {
    const std::string aux = corpus(std::string(fam) + "/d.aux");
    try {
      read_bookshelf(aux);
      ADD_FAILURE() << fam << ": expected read_bookshelf to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STRNE(e.what(), "") << fam;
    }
  }
}

}  // namespace
}  // namespace complx
