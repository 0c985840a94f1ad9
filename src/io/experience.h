// ExperienceStore: the crash-safe placement memory that turns repeat jobs
// into warm starts.
//
// A placement service sees the same netlist again and again — ECO loops,
// parameter sweeps, nightly reruns. The store keeps one converged placement
// per job (keyed by netlist_job_hash), persisted in the snapshot format of
// io/snapshot.h, and answers probes. The store serves the placer through
// its caller: resume_point() turns a hit into a starting placement, which
// the caller hands to ComplxPlacer::resume().
//
//   Exact match     — same job hash: resume from the stored placement at
//                     the finest grid with a short iteration floor; the
//                     solver typically needs a small fraction of the cold
//                     iteration count.
//   Topology match  — same connectivity/cell shapes but different core,
//                     density or fixed cells: the stored placement is still
//                     a far better start than a cold collapse-to-center.
//   Miss            — cold start.
//
// Failure policy (the whole point of this module):
//   * open() NEVER throws on a corrupt store. The file is validated by
//     parse_snapshot; any whole-file corruption class degrades the store to
//     empty (cold starts), quarantines the damaged file by renaming it to
//     "<path>.corrupt" so the evidence survives while the next save
//     self-heals the path, and records the class in stats().
//   * A payload bit flip drops only the damaged record (see snapshot.h).
//   * record() NEVER throws into the placer: a failed save (ENOSPC, failed
//     fsync/rename — injectable via IoFaultInjection) marks the store
//     degraded and returns false. Thanks to the atomic write protocol the
//     previous store content survives any failed save.
//   * degraded() is the signal the CLIs map to exit code 4: the placement
//     itself succeeded, but the experience store is corrupt or unwritable.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "io/snapshot.h"
#include "netlist/netlist.h"
#include "util/atomic_file.h"
#include "util/parallel.h"

namespace complx {

class ExperienceStore {
 public:
  struct Options {
    std::string path;       ///< snapshot file (created on first save)
    bool fsync = true;      ///< passed through to the atomic writer
    size_t max_records = 4096;  ///< eviction bound (fewest saves go first)
    /// Write-side fault hooks for the chaos suite; null in production.
    const IoFaultInjection* faults = nullptr;
  };

  explicit ExperienceStore(Options opts);

  /// Loads the store from disk. A missing file is a clean empty store
  /// (returns SnapshotError::None); a corrupt file degrades to empty,
  /// quarantines the file to "<path>.corrupt" and returns the corruption
  /// class. Never throws on malformed input.
  SnapshotError open();

  enum class MatchKind { Miss, Exact, Topology };
  struct Probe {
    MatchKind kind = MatchKind::Miss;
    std::optional<SnapshotRecord> record;  ///< empty on Miss
  };

  /// Probes for this job. A record is only returned when its cell count
  /// matches the netlist (a topology hit with a different cell count would
  /// be un-applicable). Deterministic: an exact hit wins; otherwise the
  /// topology match with the smallest key. The record is a copy taken
  /// under the lock, so a later record() cannot change it.
  Probe lookup(const Netlist& nl) const COMPLX_EXCLUDES(mu_);

  /// Where a warm start for this job resumes from: nl.snapshot() with every
  /// movable cell moved to the matching record's coordinates. Fixed cells
  /// keep THIS netlist's positions, so a topology hit with moved terminals
  /// stays consistent. nullopt on a miss (cold start). The copy is made
  /// under the lock, so a concurrent record() cannot invalidate it.
  std::optional<Placement> resume_point(const Netlist& nl) const
      COMPLX_EXCLUDES(mu_);

  /// Records a converged placement for this job and rewrites the store
  /// atomically. Returns false (and marks the store degraded) if the save
  /// failed; the in-memory record is kept either way.
  bool record(const Netlist& nl, const Placement& placement, double hpwl,
              int iterations);

  /// True after a failed load (whole-file corruption or dropped records) or
  /// a failed save. Maps to CLI exit code 4.
  bool degraded() const COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return degraded_;
  }
  std::string degraded_reason() const COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return degraded_reason_;
  }

  SnapshotStats stats() const COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  size_t size() const COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return records_.size();
  }
  uint64_t save_count() const COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return save_count_;
  }
  const std::string& path() const { return opts_.path; }  // immutable

 private:
  void mark_degraded(const std::string& reason) COMPLX_REQUIRES(mu_);
  /// lookup()'s search; the pointer is valid while mu_ is held.
  const SnapshotRecord* find_locked(const Netlist& nl, MatchKind& kind) const
      COMPLX_REQUIRES(mu_);

  Options opts_;  ///< set in the constructor, never mutated after
  /// Guards every mutable member: a placement service probes (lookup /
  /// resume_point) from worker sessions while completed runs record() back.
  /// The discipline is declared here and proven by the CI clang job's
  /// -Wthread-safety build; complx-lint rule P2 keeps it declared.
  mutable Mutex mu_;
  std::map<uint64_t, SnapshotRecord> records_
      COMPLX_GUARDED_BY(mu_);  // key -> record, sorted
  SnapshotStats stats_ COMPLX_GUARDED_BY(mu_);
  uint64_t save_count_ COMPLX_GUARDED_BY(mu_) = 0;
  bool degraded_ COMPLX_GUARDED_BY(mu_) = false;
  std::string degraded_reason_ COMPLX_GUARDED_BY(mu_);
};

}  // namespace complx
