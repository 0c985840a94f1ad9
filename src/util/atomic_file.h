// Crash-safe file writes: temp file in the destination directory + fsync +
// atomic rename.
//
// Every artifact the system emits — placements, fleet JSON, snapshot
// stores, traces, SVGs — must never exist on disk in a half-written state:
// a SIGKILL, an ENOSPC or a power cut mid-write would otherwise leave a
// truncated file that a later run (or the warm-start store) reads as
// garbage. This module is the single write authority (enforced by
// complx-lint rule IO1: no direct file-writing primitives in src/ outside
// util/atomic_file.*). The contract:
//
//  * the destination either keeps its previous content or holds the
//    complete new content — never a prefix, never a mix;
//  * failures (short write, failed fsync, failed rename, ENOSPC) throw
//    std::runtime_error with errno context and remove the temp file;
//  * the temp file lives in the destination's directory so the final
//    rename(2) is within one filesystem and therefore atomic.
//
// IoFaultInjection carries test-only hooks that make each failure mode
// reproducible (the chaos suite, `ctest -L chaos`, drives them); production
// callers leave them empty and pay one null check per hook.
#pragma once

#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace complx {

/// Test-only I/O fault hooks (the file-system analogue of the numerical
/// FaultInjection in core/health.h), passed to writes through
/// AtomicWriteOptions::faults and ExperienceStore::Options::faults.
/// Production configs leave every member empty.
struct IoFaultInjection {
  /// Maps an intended write length to the length actually written; return
  /// a smaller value to simulate a torn/short write (e.g. ENOSPC mid-file).
  std::function<size_t(size_t len)> short_write;
  /// Return true to make the data-file fsync report failure (EIO).
  std::function<bool()> fail_fsync;
  /// Return true to make the final rename report failure.
  std::function<bool()> fail_rename;
  /// Return true to make the temp-file creation report ENOSPC.
  std::function<bool()> fail_open;
  /// May mutate the serialized bytes before they are written (bit flips,
  /// truncation, garbage) — corruption the *reader* must then catch.
  std::function<void(std::string& bytes)> corrupt_bytes;
};

struct AtomicWriteOptions {
  /// fsync the temp file before rename (and the directory after). Disabled
  /// only by tests that do not care about durability, never by production
  /// callers: without the data fsync an atomic rename can still publish a
  /// file whose blocks are not on disk yet.
  bool fsync = true;
  const IoFaultInjection* faults = nullptr;
};

/// Writes `content` to `path` atomically (temp + fsync + rename). Throws
/// std::runtime_error on any failure; the destination is never left
/// partially written and the temp file is removed on error.
void write_file_atomic(const std::string& path, std::string_view content,
                       const AtomicWriteOptions& opts = {});

/// Stream-style composition with an atomic commit: build the content with
/// ordinary `<<` formatting, then `commit()` publishes it in one rename.
/// A writer destroyed without commit() writes nothing (the compose buffer
/// is discarded), so an exception mid-composition leaves no artifact.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path, AtomicWriteOptions opts = {})
      : path_(std::move(path)), opts_(opts) {}

  std::ostream& stream() { return buf_; }
  const std::string& path() const { return path_; }

  /// Publishes the composed content. Throws on I/O failure; calling twice
  /// is a logic error (std::logic_error).
  void commit();

 private:
  std::string path_;
  AtomicWriteOptions opts_;
  std::ostringstream buf_;
  bool committed_ = false;
};

}  // namespace complx
