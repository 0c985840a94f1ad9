// Versioned, mmap-friendly binary snapshot format for placements keyed by a
// Zobrist-style netlist hash.
//
// This is the durable half of the placement-as-a-service direction: a store
// that serves millions of jobs will be read by processes that did not write
// it, possibly after the writer was SIGKILLed, the disk filled, or a sector
// rotted. The format is therefore designed so that EVERY corruption class is
// detectable before any byte is interpreted, and detection degrades to "no
// snapshot" (cold start) rather than UB:
//
//   Header (64 bytes):  magic "CPLXSNAP", version, header/entry sizes,
//                       entry count, payload size, save counter, CRC32 of
//                       the index section, CRC32 of the header itself.
//   Index (64 B/entry): fixed-size records sorted strictly by key — the
//                       chess-book layout (cf. octochess simple_book) that
//                       makes a binary-search probe possible straight off a
//                       memory map. Each record: key (full netlist hash),
//                       topology hash, payload offset/cell count, its own
//                       payload CRC32, and solve metadata (HPWL, iteration
//                       count, target density, update count).
//   Payload:            per record, num_cells x-coordinates then num_cells
//                       y-coordinates as IEEE-754 binary64, little-endian.
//
// Validation ladder on load (each rung a distinct SnapshotError, counted in
// SnapshotStats): size < header (Truncated) -> magic (BadMagic) -> version
// (VersionSkew) -> header CRC / sizes (BadHeader) -> declared sizes vs file
// size (Truncated) -> index CRC (IndexCrc) -> key order (UnsortedKeys) ->
// per-record ranges (BadRecord). A payload bit flip fails only that
// record's CRC (RecordCrc): the record is dropped and every other record
// stays serviceable — one damaged job does not cold-start the fleet.
//
// All integers are serialized little-endian via explicit byte access, so
// the format is host-endianness-independent; doubles are serialized as
// their IEEE-754 bit patterns (bitwise round-trip, enforced by tests).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/vec.h"

namespace complx {

class Netlist;

inline constexpr char kSnapshotMagic[8] = {'C', 'P', 'L', 'X',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr uint32_t kSnapshotHeaderBytes = 64;
inline constexpr uint32_t kSnapshotEntryBytes = 64;

/// Zobrist-style hash of the placement JOB identity: cell dimensions/kinds,
/// net topology with pin offsets, fixed-cell positions, rows, core box and
/// target density. Stored movable positions are deliberately excluded — the
/// same job re-submitted with different incoming positions must probe to
/// the same record.
uint64_t netlist_job_hash(const Netlist& nl);

/// Connectivity-only hash: cells and nets, no geometry (core, rows, fixed
/// positions, density). Two jobs with equal topology hashes are
/// "near-repeat" — e.g. the same netlist at a new target density — and a
/// stored placement is still a far better start than a cold collapse.
uint64_t netlist_topology_hash(const Netlist& nl);

/// First validation failure of a snapshot file (None = loaded cleanly).
enum class SnapshotError {
  None,
  Truncated,     ///< shorter than the header or than its declared sizes
  BadMagic,      ///< not a snapshot file
  VersionSkew,   ///< written by an incompatible format version
  BadHeader,     ///< header CRC mismatch or inconsistent header fields
  IndexCrc,      ///< index section CRC mismatch (bit flip in an entry)
  UnsortedKeys,  ///< duplicate or non-ascending keys — probe contract void
  BadRecord,     ///< entry points outside the payload / zero cells
  kCount,        ///< number of values above; not an error, keep last
};
const char* to_string(SnapshotError e);

/// Validation counters, one per corruption class, plus record-level drops.
/// Exposed through ExperienceStore::stats() so operators can see WHY a
/// store degraded to cold starts.
struct SnapshotStats {
  size_t loads = 0;       ///< parse attempts
  /// Failed loads per corruption class, indexed by SnapshotError; the None
  /// slot stays 0.
  std::array<size_t, static_cast<size_t>(SnapshotError::kCount)> failures{};
  size_t record_crc = 0;  ///< records dropped for a payload CRC mismatch

  /// Counts one failed load; None counts nothing.
  void count(SnapshotError e);
  size_t operator[](SnapshotError e) const {
    return failures[static_cast<size_t>(e)];
  }
  /// Loads that failed, whatever the class.
  size_t load_failures() const;
};

/// One decoded record: the converged placement of a job plus metadata.
struct SnapshotRecord {
  uint64_t key = 0;    ///< netlist_job_hash of the job
  uint64_t topo = 0;   ///< netlist_topology_hash (near-repeat probe)
  double hpwl = 0.0;   ///< HPWL of the stored placement
  double target_density = 0.0;
  uint32_t iterations = 0;  ///< solver iterations the stored solve took
  uint32_t saves = 1;       ///< times this key has been re-recorded
  Vec x;  ///< cell-center coordinates, all cells, netlist order
  Vec y;
};

/// Serializes records into the binary format. Records need not be sorted;
/// duplicate keys are a logic error (std::invalid_argument). `save_count`
/// is the store's monotonic save counter, recorded in the header.
std::string serialize_snapshot(std::vector<SnapshotRecord> records,
                               uint64_t save_count);

/// Result of parsing a snapshot image.
struct SnapshotParseResult {
  SnapshotError error = SnapshotError::None;
  std::string detail;  ///< human-readable failure context (empty when None)
  uint64_t save_count = 0;
  std::vector<SnapshotRecord> records;  ///< valid records (sorted by key)
  size_t records_dropped = 0;  ///< records discarded for payload CRC errors
};

/// Validates and decodes a snapshot image. NEVER throws on malformed input
/// and never reads out of bounds: every corruption class maps to a
/// SnapshotError (counted in `stats`), and a payload-CRC failure drops only
/// the affected record.
SnapshotParseResult parse_snapshot(std::string_view bytes,
                                   SnapshotStats& stats);

}  // namespace complx
