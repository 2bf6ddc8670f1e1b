#include "disttrack/service/site_runtime.h"

#include <unistd.h>

#include <cstdio>
#include <vector>

#include "disttrack/service/framing.h"
#include "disttrack/service/site_core.h"

namespace disttrack {
namespace service {

namespace {

/// The coordinator socket, blocking both ways.
class SocketLink : public SiteCore::Link {
 public:
  explicit SocketLink(int fd) : fd_(fd) {}

  bool Send(const std::vector<uint8_t>& bytes) override {
    return WriteAll(fd_, bytes.data(), bytes.size());
  }

  bool Await(FrameReader* reader) override {
    uint8_t buf[65536];
    long n = ReadSome(fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    reader->Append(buf, static_cast<size_t>(n));
    return true;
  }

 private:
  int fd_;
};

/// One snapshot file per site under the snapshot directory, written
/// atomically (options.h).
class FileSnapshotStore : public SiteCore::SnapshotStore {
 public:
  FileSnapshotStore(const std::string& dir, const ServiceOptions& options,
                    int site)
      : path_(SnapshotPath(dir, site)), hash_(options.Hash()), site_(site) {}

  bool Load(SiteSnapshot* out) override {
    return ReadSnapshotFile(path_, hash_, out) && out->site == site_;
  }

  bool Save(const SiteSnapshot& snapshot) override {
    std::string error;
    if (WriteSnapshotFile(path_, snapshot, &error)) return true;
    fprintf(stderr, "site %d: snapshot failed: %s\n", site_, error.c_str());
    return false;
  }

  void Discard() override { unlink(path_.c_str()); }

 private:
  std::string path_;
  uint64_t hash_;
  int site_;
};

}  // namespace

int SiteRuntime::Run() {
  std::string error;
  int fd = config_.connected_fd >= 0 ? config_.connected_fd
                                     : Dial(config_.endpoint, 10000, &error);
  if (fd < 0) {
    fprintf(stderr, "site %d: %s\n", config_.site, error.c_str());
    return 3;
  }
  SocketLink link(fd);
  FileSnapshotStore store(config_.snapshot_dir, config_.options,
                          config_.site);
  SiteCore::Config core_config;
  core_config.options = config_.options;
  core_config.site = config_.site;
  core_config.halt_after = config_.crash_after;
  SiteCore core(core_config, &link,
                config_.snapshot_dir.empty() ? nullptr : &store);

  core.Start();
  for (;;) {
    core.Advance();
    if (core.halted()) _exit(7);  // hard crash: no flush, no goodbye
    if (core.finished()) break;
    if (!link.Await(core.reader())) {
      fprintf(stderr, "site %d: coordinator closed the connection\n",
              config_.site);
      close(fd);
      return 3;
    }
  }
  close(fd);
  if (core.rejected()) {
    fprintf(stderr, "site %d: %s\n", config_.site,
            core.fail_reason().c_str());
    return 2;
  }
  if (core.failed()) {
    fprintf(stderr, "site %d: %s\n", config_.site,
            core.fail_reason().c_str());
    return 3;
  }
  return 0;
}

}  // namespace service
}  // namespace disttrack
