#include "exp/sweep_journal.hpp"

#include <cstdio>

#include "exp/fault.hpp"
#include "exp/run_cache.hpp"
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

std::uint64_t sweep_fingerprint(const std::vector<std::uint64_t>& job_keys) {
  util::Fnv1a h;
  h.mix_u64(run_cache::kFormatVersion);
  h.mix_u64(job_keys.size());
  for (std::uint64_t k : job_keys) h.mix_u64(k);
  return h.digest();
}

std::string sweep_directory(const std::string& base, std::uint64_t) {
  return base;
}

std::size_t replay(const std::string& dir,
                   const std::vector<std::uint64_t>& job_keys,
                   std::vector<RunResult>& results, std::vector<char>& done) {
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < job_keys.size(); ++i) {
    switch (run_cache::find(dir, job_keys[i], results[i])) {
      case run_cache::EntryStatus::kOk:
        done[i] = 1;
        ++replayed;
        break;
      case run_cache::EntryStatus::kCorrupt:
        fault_counters::add_journal_corrupt();
        break;
      case run_cache::EntryStatus::kMissing:
        break;
    }
  }
  if (replayed > 0) fault_counters::add_journal_replayed(replayed);
  return replayed;
}

bool append(const std::string& dir, std::size_t job_index, std::uint64_t key,
            const RunResult& result) {
  if (!run_cache::store(dir, key, result)) return false;
  fault_counters::add_journal_append();
  if (fault_injection::wants_journal_corruption(job_index))
    corrupt_in_place(run_cache::entry_path(dir, key));
  return true;
}

}  // namespace wlan::exp::sweep_journal
