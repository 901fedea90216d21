// Child service processes (mecsc_serve / mecsc_route) and the private
// directory their Unix sockets live in.
//
// Every child is killed on every exit path: its destructor stops it, and
// PR_SET_PDEATHSIG kills it if the harness itself dies first.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// A directory created under `parent` and removed, with its files, on
/// destruction. Paths inside it stay short enough for sun_path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class Child {
 public:
  /// Starts argv[0] with argv; stdout and stderr go to `log_path`.
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child() { stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// SIGTERM, then SIGKILL after a grace period; reaps the process.
  /// Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
};

/// Polls `health` until it answers ok; throws after `timeout_ms`.
void wait_healthy(const std::string& socket_path, double timeout_ms);

}  // namespace perfbench
