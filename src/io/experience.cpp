#include "io/experience.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "netlist/netlist.h"
#include "util/log.h"

namespace complx {

ExperienceStore::ExperienceStore(Options opts) : opts_(std::move(opts)) {}

void ExperienceStore::mark_degraded(const std::string& reason) {
  degraded_ = true;
  if (degraded_reason_.empty()) degraded_reason_ = reason;
}

SnapshotError ExperienceStore::open() {
  MutexLock lock(mu_);
  records_.clear();
  std::ifstream in(opts_.path, std::ios::binary);
  if (!in.is_open()) return SnapshotError::None;  // no store yet: cold start
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    // Read error (not absence): treat like a truncated image.
    ++stats_.loads;
    stats_.count(SnapshotError::Truncated);
    mark_degraded("read failed for " + opts_.path);
    return SnapshotError::Truncated;
  }
  const std::string bytes = buf.str();

  SnapshotParseResult parsed = parse_snapshot(bytes, stats_);
  if (parsed.error != SnapshotError::None) {
    // Quarantine: keep the evidence at "<path>.corrupt" (best effort) so
    // the next save can self-heal the live path. std::rename, not a write:
    // the damaged bytes are preserved verbatim.
    const std::string quarantine = opts_.path + ".corrupt";
    if (std::rename(opts_.path.c_str(), quarantine.c_str()) == 0)
      log_warn("experience store %s: %s (%s) — quarantined to %s",
               opts_.path.c_str(), to_string(parsed.error),
               parsed.detail.c_str(), quarantine.c_str());
    else
      log_warn("experience store %s: %s (%s)", opts_.path.c_str(),
               to_string(parsed.error), parsed.detail.c_str());
    mark_degraded(opts_.path + ": " + to_string(parsed.error) + ": " +
                  parsed.detail);
    return parsed.error;
  }

  save_count_ = parsed.save_count;
  for (SnapshotRecord& r : parsed.records) {
    const uint64_t key = r.key;
    records_.emplace(key, std::move(r));
  }
  if (parsed.records_dropped > 0) {
    // Partial corruption: the surviving records stay serviceable, but the
    // operator must hear about the loss — exit code 4, not silence.
    log_warn("experience store %s: dropped %zu record(s) with payload CRC "
             "mismatch",
             opts_.path.c_str(), parsed.records_dropped);
    mark_degraded(opts_.path + ": " + std::to_string(parsed.records_dropped) +
                  " record(s) dropped (payload CRC)");
  }
  return SnapshotError::None;
}

ExperienceStore::Probe ExperienceStore::lookup(const Netlist& nl) const {
  MutexLock lock(mu_);
  Probe probe;
  if (const SnapshotRecord* rec = find_locked(nl, probe.kind))
    probe.record = *rec;
  return probe;
}

const SnapshotRecord* ExperienceStore::find_locked(const Netlist& nl,
                                                   MatchKind& kind) const {
  kind = MatchKind::Miss;
  const uint64_t key = netlist_job_hash(nl);
  const auto exact = records_.find(key);
  if (exact != records_.end() &&
      exact->second.x.size() == nl.num_cells()) {
    kind = MatchKind::Exact;
    return &exact->second;
  }
  const uint64_t topo = netlist_topology_hash(nl);
  for (const auto& [k, rec] : records_) {  // sorted: smallest key wins
    (void)k;
    if (rec.topo == topo && rec.x.size() == nl.num_cells()) {
      kind = MatchKind::Topology;
      return &rec;
    }
  }
  return nullptr;
}

std::optional<Placement> ExperienceStore::resume_point(
    const Netlist& nl) const {
  MutexLock lock(mu_);
  MatchKind kind = MatchKind::Miss;
  const SnapshotRecord* found = find_locked(nl, kind);
  if (found == nullptr) return std::nullopt;
  const SnapshotRecord& rec = *found;
  Placement p = nl.snapshot();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = rec.x[id];
    p.y[id] = rec.y[id];
  }
  log_debug("experience store: %s hit (stored hpwl %.4g, %u iterations)",
            kind == MatchKind::Exact ? "exact" : "topology", rec.hpwl,
            rec.iterations);
  return p;
}

bool ExperienceStore::record(const Netlist& nl, const Placement& placement,
                             double hpwl, int iterations) {
  MutexLock lock(mu_);
  if (placement.size() != nl.num_cells()) {
    mark_degraded("record: placement size mismatch");
    return false;
  }
  const uint64_t key = netlist_job_hash(nl);
  SnapshotRecord& rec = records_[key];
  const bool existed = rec.x.size() == nl.num_cells();
  rec.key = key;
  rec.topo = netlist_topology_hash(nl);
  rec.hpwl = hpwl;
  rec.target_density = nl.target_density();
  rec.iterations =
      iterations < 0 ? 0u : static_cast<uint32_t>(iterations);
  rec.saves = existed ? rec.saves + 1 : 1;
  rec.x = placement.x;
  rec.y = placement.y;

  // Deterministic eviction: fewest saves first (cold entries), smallest key
  // breaking ties. The just-written record is exempt.
  while (records_.size() > opts_.max_records) {
    auto victim = records_.end();
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      if (it->first == key) continue;
      if (victim == records_.end() || it->second.saves < victim->second.saves)
        victim = it;
    }
    if (victim == records_.end()) break;
    records_.erase(victim);
  }

  ++save_count_;
  std::vector<SnapshotRecord> flat;
  flat.reserve(records_.size());
  for (const auto& [k, r] : records_) {
    (void)k;
    flat.push_back(r);
  }
  try {
    AtomicWriteOptions wo;
    wo.fsync = opts_.fsync;
    wo.faults = opts_.faults;
    write_file_atomic(opts_.path, serialize_snapshot(std::move(flat),
                                                     save_count_),
                      wo);
  } catch (const std::exception& e) {
    // Atomic protocol guarantee: the previous store content is intact.
    log_warn("experience store save failed: %s", e.what());
    mark_degraded(std::string("save failed: ") + e.what());
    return false;
  }
  return true;
}

}  // namespace complx
