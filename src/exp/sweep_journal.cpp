#include "exp/sweep_journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "exp/fault.hpp"
#include "exp/run_cache.hpp"
#include "obs/collect.hpp"
#include "util/fnv.hpp"

namespace wlan::exp::sweep_journal {

namespace {

/// Test-only: flips one payload byte of a finished entry file in place,
/// modeling bit rot / a torn write that survived a crash. The checksum
/// footer must catch this on replay.
void corrupt_in_place(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  // Flip a byte in the middle of the payload (offset 12 lands inside the
  // key field for any well-formed entry — header is 8 bytes).
  if (std::fseek(f, 12, SEEK_SET) == 0) {
    const int c = std::fgetc(f);
    if (c != EOF) {
      std::fseek(f, 12, SEEK_SET);
      std::fputc(c ^ 0xFF, f);
    }
  }
  std::fclose(f);
}

}  // namespace

std::string directory() {
  const char* dir = std::getenv("WLAN_SWEEP_JOURNAL");
  return dir == nullptr ? std::string() : std::string(dir);
}

std::uint64_t sweep_fingerprint(const std::vector<std::uint64_t>& job_keys) {
  util::Fnv1a h;
  h.mix_u64(run_cache::kFormatVersion);
  h.mix_u64(job_keys.size());
  for (std::uint64_t k : job_keys) h.mix_u64(k);
  return h.digest();
}

std::string sweep_directory(const std::string& base,
                            std::uint64_t fingerprint) {
  char name[40];
  std::snprintf(name, sizeof name, "sweep_%016llx",
                static_cast<unsigned long long>(fingerprint));
  return (std::filesystem::path(base) / name).string();
}

std::string entry_path(const std::string& sweep_dir, std::size_t job_index) {
  char name[48];
  std::snprintf(name, sizeof name, "job_%zu.entry", job_index);
  return (std::filesystem::path(sweep_dir) / name).string();
}

std::size_t replay(const std::string& sweep_dir,
                   const std::vector<std::uint64_t>& job_keys,
                   std::vector<RunResult>& results, std::vector<char>& done) {
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < job_keys.size(); ++i) {
    const std::string path = entry_path(sweep_dir, i);
    switch (run_cache::read_entry_file(path, job_keys[i], results[i])) {
      case run_cache::EntryStatus::kOk:
        done[i] = 1;
        ++replayed;
        break;
      case run_cache::EntryStatus::kCorrupt:
        run_cache::quarantine_entry(path);
        fault_counters::add_journal_corrupt();
        break;
      case run_cache::EntryStatus::kMissing:
        break;
    }
  }
  if (replayed > 0) fault_counters::add_journal_replayed(replayed);
  return replayed;
}

bool append(const std::string& sweep_dir, std::size_t job_index,
            std::uint64_t key, const RunResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(sweep_dir, ec);
  const std::string path = entry_path(sweep_dir, job_index);
  // Persist the run's deterministic metrics, minus the process-cumulative
  // names (cache.*, exp.fault.*, profile.*): those depend on which process
  // ran the job, and merge_run_metrics skips them anyway — storing only
  // the per-run counters keeps a journal-replayed fold byte-identical to
  // an uninterrupted one.
  obs::MetricsRegistry filtered;
  for (const obs::Metric& m : result.metrics.entries())
    if (!obs::is_process_cumulative_metric(m.name))
      filtered.set(m.name, m.value);
  if (!run_cache::write_entry_file(path, key, result, &filtered)) return false;
  fault_counters::add_journal_append();
  if (fault_injection::wants_journal_corruption(job_index))
    corrupt_in_place(path);
  return true;
}

}  // namespace wlan::exp::sweep_journal
